package dssearch

import (
	"errors"
	"fmt"
	"math"

	"asrs/internal/asp"
	"asrs/internal/attr"
	"asrs/internal/geom"
	"asrs/internal/kernel"
)

// ErrExtentTooSmall reports a Within extent that cannot hold a single
// a×b answer region (the anchor window is invalid).
var ErrExtentTooSmall = errors.New("dssearch: extent smaller than the a×b query region")

// ErrNoFeasibleRegion reports that exclusions left no anchor position
// inside the extent: every a×b region within the extent overlaps an
// excluded rectangle.
var ErrNoFeasibleRegion = errors.New("dssearch: no feasible region within the extent")

// AnchorWindow maps a Within extent to the rectangle of feasible ASP
// answer points. Under the top-right anchor the answer point is the
// region's bottom-left corner (RegionFor: region = [x, x+a] × [y, y+b]),
// so the region is contained in `within` exactly when the point lies in
// [MinX, MaxX−a] × [MinY, MaxY−b]. The window is invalid (and the
// extent infeasible) when the extent is smaller than a×b in either
// axis; a degenerate (zero-width or zero-height) window is valid and
// means exactly one anchor line or point fits.
func AnchorWindow(within geom.Rect, a, b float64) geom.Rect {
	return geom.Rect{MinX: within.MinX, MinY: within.MinY, MaxX: within.MaxX - a, MaxY: within.MaxY - b}
}

// solveWithinPieces runs the searcher over the pieces from a +Inf
// infeasible-sentinel seed and returns the best feasible candidate.
// The sentinel (not the out-of-space empty candidate Solve uses) is
// what makes Within semantics exact: the empty covering set is only an
// answer when some anchor INSIDE the window has empty coverage, and
// the sweep evaluates those in-window empty intervals like any other
// arrangement cell. An empty corpus is the degenerate case where every
// anchor has empty coverage; the searcher's kernel path early-returns
// on zero rectangles, so the canonical empty candidate is evaluated
// directly at each piece's bottom-left anchor instead.
func solveWithinPieces(s *Searcher, pieces []geom.Rect) (asp.Result, bool) {
	sentinel := asp.Result{Point: geom.Point{X: math.Inf(1), Y: math.Inf(1)}, Dist: math.Inf(1)}
	s.best = sentinel
	if len(s.rects) == 0 {
		rep := make([]float64, s.query.F.Dims())
		s.query.F.FinalizeExact(make([]float64, s.query.F.Channels()), rep)
		d := s.query.Distance(rep)
		for _, p := range pieces {
			cand := asp.Result{Point: p.BL(), Dist: d, Rep: rep}
			if kernel.Better(cand, s.best) {
				s.best = cand
			}
		}
	} else {
		for _, p := range pieces {
			s.SolveWithin(p, 0)
		}
	}
	found := s.best.Point != sentinel.Point || s.best.Rep != nil
	return s.best, found
}

// SolveASRSWithin solves the ASRS problem restricted to answer regions
// contained in the closed extent `within`, additionally excluding
// regions that overlap any rectangle in `exclude` (beyond shared
// boundary). It is the windowed front door the shard router builds on:
// the anchor window depends only on (within, a, b) — never on the
// corpus hull — so two corpora that agree on the rectangles
// intersecting the window take bit-identical search trajectories
// through it (DESIGN.md §11). Requires the default top-right anchor.
func SolveASRSWithin(ds *attr.Dataset, a, b float64, q asp.Query, within geom.Rect, exclude []geom.Rect, opt Options) (geom.Rect, asp.Result, Stats, error) {
	if opt.Anchor != asp.AnchorTR {
		return geom.Rect{}, asp.Result{}, Stats{}, fmt.Errorf("dssearch: windowed search requires the top-right-corner anchor")
	}
	if !(a > 0) || !(b > 0) {
		return geom.Rect{}, asp.Result{}, Stats{}, fmt.Errorf("dssearch: region extent must be positive, got %g x %g", a, b)
	}
	if !within.IsValid() {
		return geom.Rect{}, asp.Result{}, Stats{}, fmt.Errorf("dssearch: invalid extent %+v", within)
	}
	win := AnchorWindow(within, a, b)
	if !win.IsValid() {
		return geom.Rect{}, asp.Result{}, Stats{}, ErrExtentTooSmall
	}
	rects, err := ReduceForSearch(ds, a, b, q.F, opt)
	if err != nil {
		return geom.Rect{}, asp.Result{}, Stats{}, err
	}
	s, err := NewSearcherOwning(rects, q, opt)
	if err != nil {
		return geom.Rect{}, asp.Result{}, Stats{}, err
	}
	defer s.Release()
	// The same piece algebra SolveASRSTopK applies to the full space, so
	// a windowed search and a full-space search that happen to visit the
	// same geometry take bit-identical trajectories.
	pieces := AppendPieces(nil, win, ForbiddenBoxes(exclude, a, b))
	if len(pieces) == 0 {
		return geom.Rect{}, asp.Result{}, s.Stats, ErrNoFeasibleRegion
	}
	best, found := solveWithinPieces(s, pieces)
	if err := s.Err(); err != nil {
		return geom.Rect{}, asp.Result{}, s.Stats, err
	}
	if !found {
		return geom.Rect{}, asp.Result{}, s.Stats, ErrNoFeasibleRegion
	}
	best.Rep = s.PointRepresentation(best.Point)
	best.Dist = s.query.Distance(best.Rep)
	s.best = best
	region := opt.Anchor.RegionFor(best.Point, a, b)
	return region, best, s.Stats, nil
}

// SolveASRSTopKWithin is the windowed greedy top-k: up to k
// non-overlapping regions inside the extent in increasing distance
// order, each round excluding the regions already chosen (plus any
// caller exclusions). Rounds stop early — without error — once no
// feasible region remains.
func SolveASRSTopKWithin(ds *attr.Dataset, a, b float64, q asp.Query, k int, exclude []geom.Rect, within geom.Rect, opt Options) ([]geom.Rect, []asp.Result, error) {
	if k <= 0 {
		return nil, nil, fmt.Errorf("dssearch: top-k requires k >= 1, got %d", k)
	}
	excl := append([]geom.Rect(nil), exclude...)
	var regions []geom.Rect
	var results []asp.Result
	for i := 0; i < k; i++ {
		region, res, _, err := SolveASRSWithin(ds, a, b, q, within, excl, opt)
		if errors.Is(err, ErrNoFeasibleRegion) {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		regions = append(regions, region)
		results = append(results, res)
		excl = append(excl, region)
	}
	if len(regions) == 0 {
		return nil, nil, ErrNoFeasibleRegion
	}
	return regions, results, nil
}
