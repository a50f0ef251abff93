package asrs

import (
	"context"
	"errors"
	"math"

	"asrs/internal/asp"
	"asrs/internal/dssearch"
	"asrs/internal/gridindex"
	"asrs/internal/kernel"
	"asrs/internal/sweep"
)

// QueryRequest is the one description of a search: what the query
// planner emits, what the Engine, the shard router and SearchBaseline
// answer, and what Search, SearchWithin and SearchWithIndex spell out as
// arguments.
type QueryRequest struct {
	// Query is the compiled similarity query (see QueryFromRegion /
	// QueryFromTarget).
	Query Query
	// A, B are the answer region's width and height.
	A, B float64
	// TopK requests the k best non-overlapping regions; 0 or 1 returns
	// the single best.
	TopK int
	// Exclude lists rectangles no answer region may overlap (beyond a
	// shared boundary) — typically the example query region.
	Exclude []Rect
	// Within, when non-nil, restricts answer regions to those contained
	// in the closed extent (the shard router's routing primitive; also a
	// first-class query feature). Windowed requests bypass the grid
	// index — the window itself already narrows the search — and surface
	// ErrExtentTooSmall / ErrNoFeasibleRegion as typed request errors.
	Within *Rect
	// Options overrides the engine's default search options for this
	// request when non-nil.
	Options *Options
	// Ctx, when non-nil, bounds this request individually (per-query
	// deadline or cancellation): the search kernel checks it before each
	// space it pops and the response's Err becomes context.Canceled /
	// context.DeadlineExceeded. It takes precedence over the context of
	// the QueryCtx or QueryBatchCtx call. A request that joins an
	// identical search in flight waits under its own Ctx and, should that
	// search fail, runs its own: nobody inherits anybody's deadline.
	Ctx context.Context
}

// QueryResponse is the answer to one QueryRequest. Regions and Results
// are parallel slices (length 1 unless TopK > 1); Err reports a
// per-request failure without failing the rest of a batch.
type QueryResponse struct {
	Regions []Rect
	Results []Result
	Err     error
}

// Best returns the first (best) region and result of a successful
// response.
func (r QueryResponse) Best() (Rect, Result) {
	if len(r.Regions) == 0 {
		return Rect{}, Result{}
	}
	return r.Regions[0], r.Results[0]
}

// MaxTopK bounds TopK wherever it arrives from outside the program: the
// query language's `top k` and the daemon's top_k field both refuse more.
// A top-k is k full searches under a growing exclusion list; nothing
// legitimate asks for thousands.
const MaxTopK = 4096

// Typed windowed-search errors, surfaced by windowed requests and the
// shard router: an extent too small to hold an a×b region, and an extent
// whose every feasible region is excluded.
var (
	ErrExtentTooSmall   = dssearch.ErrExtentTooSmall
	ErrNoFeasibleRegion = dssearch.ErrNoFeasibleRegion
)

// Greedy is the one eager definition of a top-k (an extension beyond the
// paper): up to k non-overlapping regions in increasing distance order —
// the best region, then the best region overlapping none before it, and
// so on — each found by one call of round under the exclusions so far
// (the caller's own, typically the example region, apply to every
// round). The stop rule: a round that finds no feasible region after at
// least one answer ends the sequence without error, and so does a round
// whose region overlaps an earlier one — an un-windowed round always has
// an answer, the empty region outside the space, which no exclusion
// forbids: once the space is used up it comes back round after round.
// Any other failure, and infeasibility of the first round, fails the
// request. Answers are sized by the rounds run, never by k. The Engine's
// one-shot top-k, the router's straddling top-k and SearchBaseline all
// run through it; query.Stream.Next is its lazy form.
func Greedy(k int, exclude []Rect, round func(exclude []Rect) (Rect, Result, error)) ([]Rect, []Result, error) {
	excl := exclude[:len(exclude):len(exclude)] // rounds append their regions to a copy
	var regions []Rect
	var results []Result
	for len(regions) < max(k, 1) {
		region, res, err := round(excl)
		if errors.Is(err, ErrNoFeasibleRegion) && len(regions) > 0 {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		if OverlapsAny(region, regions) {
			break
		}
		regions = append(regions, region)
		results = append(results, res)
		excl = append(excl, region)
	}
	return regions, results, nil
}

// OverlapsAny reports whether region overlaps one of earlier beyond a
// shared boundary: the test that ends a greedy sequence, here and in its
// lazy form.
func OverlapsAny(region Rect, earlier []Rect) bool {
	for _, e := range earlier {
		if region.IntersectsOpen(e) {
			return true
		}
	}
	return false
}

// Answer is the one search driver: it answers a request over a dataset
// with the Greedy rounds of one of the paper's two algorithms, picked
// from what it is given. With a grid index for the query's composite and
// no extent, every round is a GI-DS run (Algorithm 2), its margins and
// cells cut around what the round must avoid; otherwise the rounds are
// DS-Search (Algorithm 1) on one searcher over the whole space or the
// extent's anchor window — the index enumerates whole-corpus cells and
// knows nothing about extents, while the window already narrows the
// search. Distances are bit-identical either way; among equally distant
// regions the two may pick different ones. The returned stats sum the
// rounds (only DS is filled without an index).
func Answer(ds *Dataset, idx *Index, req QueryRequest) (QueryResponse, IndexStats) {
	var opt Options
	if req.Options != nil {
		opt = *req.Options
	}
	if opt.Ctx == nil {
		opt.Ctx = req.Ctx
	}
	var stats IndexStats
	var round func([]Rect) (Rect, Result, error)
	if idx != nil && req.Within == nil {
		round = func(excl []Rect) (Rect, Result, error) {
			res, st, err := gridindex.Solve(idx, ds, req.Query, req.A, req.B, excl, opt)
			stats.Add(st)
			return asp.AnchorTR.RegionFor(res.Point, req.A, req.B), res, err
		}
	} else {
		r, err := dssearch.Open(ds, req.A, req.B, req.Query, req.Within, opt)
		if err != nil {
			return QueryResponse{Err: err}, stats
		}
		defer r.Close()
		round = func(excl []Rect) (Rect, Result, error) {
			region, res, err := r.Best(excl)
			stats.DS = r.Stats()
			return region, res, err
		}
	}
	regions, results, err := Greedy(req.TopK, req.Exclude, round)
	return QueryResponse{Regions: regions, Results: results, Err: err}, stats
}

// SearchBaseline answers a request with the O(n²) sweep-line baseline
// ("Base" in the paper's experiments): each round sweeps, in full, every
// piece of the search space — the reduction's whole space, or the
// extent's anchor window, minus the forbidden boxes of the exclusions —
// and keeps the minimum. The sweep sums every channel in the limbs the
// reduction certifies (sweep.New), so a distance is what every search
// configuration computes for the same covering set, bit for bit. Request
// options are ignored. Intended for validation and benchmarking: it is
// the oracle the differential tests hold every search configuration to.
func SearchBaseline(ds *Dataset, req QueryRequest) QueryResponse {
	rects, err := asp.Reduce(ds, req.A, req.B, asp.AnchorTR)
	if err != nil {
		return QueryResponse{Err: err}
	}
	s, err := sweep.New(rects, req.Query)
	if err != nil {
		return QueryResponse{Err: err}
	}
	// What a round starts from decides what "nothing found" means, as in
	// dssearch.Request.Best: over the whole space the empty covering set
	// outside it, in a window nothing.
	space := asp.Space(rects)
	seed := Result{Dist: math.Inf(1)}
	if req.Within == nil {
		seed.Point = asp.EmptyCandidate(space)
		seed.Rep = asp.PointRepresentation(rects, req.Query.F, seed.Point)
		seed.Dist = req.Query.Distance(seed.Rep)
	} else if space = dssearch.AnchorWindow(*req.Within, req.A, req.B); !space.IsValid() {
		return QueryResponse{Err: ErrExtentTooSmall}
	}
	var pieces []Rect
	regions, results, err := Greedy(req.TopK, req.Exclude, func(excl []Rect) (Rect, Result, error) {
		best := seed
		pieces = dssearch.AppendPieces(pieces[:0], space, dssearch.ForbiddenBoxes(excl, req.A, req.B))
		for _, p := range pieces {
			if r, ok := s.SolveWithin(p); ok && kernel.Better(r, best) {
				best = r
			}
		}
		if best.Rep == nil {
			return Rect{}, Result{}, ErrNoFeasibleRegion
		}
		return asp.AnchorTR.RegionFor(best.Point, req.A, req.B), best, nil
	})
	return QueryResponse{Regions: regions, Results: results, Err: err}
}
