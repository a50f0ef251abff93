package dssearch

import (
	"errors"
	"fmt"
	"math"

	"asrs/internal/asp"
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

// CheckWithin is the error of a Within extent that is not a finite
// rectangle with min ≤ max on both axes; nil for one that is. An
// infinite side would make the anchor window infinite, and a search over
// it would answer a region at -Inf.
func CheckWithin(within geom.Rect) error {
	for _, v := range [...]float64{within.MinX, within.MinY, within.MaxX, within.MaxY} {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return fmt.Errorf("dssearch: extent must be finite, got %+v", within)
		}
	}
	if !within.IsValid() {
		return fmt.Errorf("dssearch: invalid extent %+v", within)
	}
	return nil
}

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

// Request is the package front door: the DS-Search state of one ASRS
// request — the reduction to ASP (Definition 5), one searcher over it,
// and the space its answer points may lie in — answering any number of
// single-best rounds (Best), each under its own exclusion list. The
// space is the reduction's whole space, or with an extent its anchor
// window: the window depends only on (within, a, b) — never on the
// corpus hull — so two corpora that agree on the rectangles intersecting
// it take bit-identical search trajectories through it (DESIGN.md §11).
// What a sequence of rounds means (a top-k) is the caller's policy
// (asrs.Greedy); the rounds share the reduction and the searcher.
type Request struct {
	s        *Searcher
	a, b     float64
	space    geom.Rect
	windowed bool
	pieces   []geom.Rect
}

// CheckRequest is the error of a request no search can take: an a×b
// extent CheckExtent refuses, a within extent CheckWithin refuses or
// smaller than a×b, or options no searcher takes. It reads no data, so a
// request driver checks it before it builds or compiles anything.
func CheckRequest(a, b float64, within *geom.Rect, opt Options) error {
	if err := CheckExtent(a, b); err != nil {
		return err
	}
	if within != nil {
		if err := CheckWithin(*within); err != nil {
			return err
		}
		if !AnchorWindow(*within, a, b).IsValid() {
			return ErrExtentTooSmall
		}
	}
	return opt.withDefaults().validate()
}

// Open validates a request's shape (CheckRequest) and builds the searcher
// its rounds share (NewRegionSearcher) on the request's plan. A nil
// within searches the whole space. The caller must Close the request
// before it releases the plan.
func Open(pl *Plan, a, b float64, within *geom.Rect, opt Options) (*Request, error) {
	if err := CheckRequest(a, b, within, opt); err != nil {
		return nil, err
	}
	s, err := NewRegionSearcher(pl, a, b, opt)
	if err != nil {
		return nil, err
	}
	r := &Request{s: s, a: a, b: b, space: s.space, windowed: within != nil}
	if r.windowed {
		r.space = AnchorWindow(*within, a, b)
	}
	return r, nil
}

// Best answers one round: the best a×b region of the request's space
// that overlaps none of the exclude rectangles beyond a shared boundary.
// The space minus the exclusions' forbidden boxes is searched piece by
// piece (pieces.go). ErrNoFeasibleRegion means a windowed round found no
// anchor position left; a context error that the round was cut short.
func (r *Request) Best(exclude []geom.Rect) (geom.Rect, asp.Result, error) {
	s := r.s
	// The incumbent before anything is searched. Over the whole space it
	// is the empty covering set at a point outside the space, so a round
	// always has an answer. In a window it is a +Inf sentinel, which is
	// what makes Within semantics exact: the empty covering set is only
	// an answer when some anchor INSIDE the window has empty coverage, and
	// the sweep evaluates those in-window empty intervals like any other
	// arrangement cell.
	seed := asp.Result{Point: geom.Point{X: math.Inf(1), Y: math.Inf(1)}, Dist: math.Inf(1)}
	if !r.windowed {
		seed = s.emptyResult(r.space)
	}
	s.best = seed
	r.pieces = AppendPieces(r.pieces[:0], r.space, ForbiddenBoxes(exclude, r.a, r.b))
	if len(s.pts) > 0 {
		for _, p := range r.pieces {
			s.SolveWithin(p, 0)
		}
	} else if r.windowed {
		// An empty corpus: every anchor has empty coverage and the kernel
		// path early-returns on zero rectangles, so the empty candidate is
		// evaluated at each piece's bottom-left anchor instead.
		cand := s.emptyResult(r.space)
		for _, p := range r.pieces {
			if cand.Point = p.BL(); kernel.Better(cand, s.best) {
				s.best = cand
			}
		}
	}
	if err := s.Err(); err != nil {
		return geom.Rect{}, asp.Result{}, err
	}
	if s.best.Point == seed.Point && s.best.Rep == nil {
		return geom.Rect{}, asp.Result{}, ErrNoFeasibleRegion
	}
	s.best = s.Settle(s.best)
	return asp.AnchorTR.RegionFor(s.best.Point, r.a, r.b), s.best, nil
}

// Plan returns the plan the request's searcher reads.
func (r *Request) Plan() *Plan { return r.s.plan }

// Stats reports the work of the rounds so far.
func (r *Request) Stats() Stats { return r.s.Stats }

// Close hands the searcher's slab back to the free list (Searcher.Release);
// the request must not be used afterwards.
func (r *Request) Close() { r.s.Release() }
