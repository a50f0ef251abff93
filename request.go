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

// Greedy is the one definition of a top-k (an extension beyond the
// paper): up to k non-overlapping regions in increasing distance order —
// the best region, then the best region overlapping none before it, and
// so on. It drives its lazy form, Candidates, to max(k, 1) regions, and
// ends where Candidates' stop rules end it. Answers are sized by the rounds run, never
// by k. Every top-k runs through it: Answer's, SearchBaseline's, every
// routed request's (shard.Session) and, through Candidates, a stream's
// (query.Stream).
func Greedy(k int, exclude []Rect, round func(exclude []Rect) (Rect, Result, error)) ([]Rect, []Result, error) {
	c := NewCandidates(exclude)
	var regions []Rect
	var results []Result
	for len(regions) < max(k, 1) {
		region, res, ok := c.Next(round)
		if !ok {
			break
		}
		regions, results = append(regions, region), append(results, res)
	}
	if c.err != nil {
		return nil, nil, c.err
	}
	return regions, results, nil
}

// Candidates is Greedy's lazy form, one round per Next: each round finds
// the best region under the caller's exclusions (typically the example
// region) and every candidate so far, in the order found; a candidate the
// caller rejects (a stream's post-filter) has still joined them. The stop
// rules: infeasibility after at least one candidate ends the sequence
// without error, and so does a region that overlaps an earlier candidate —
// an un-windowed round always has an answer, the empty region outside the
// space, which no exclusion forbids, so once the space is used up it comes
// back round after round. Any other failure, and infeasibility of the
// first round, ends it with that error (Err).
type Candidates struct {
	excl []Rect // the caller's exclusions, then every candidate so far
	n    int    // the caller's exclusions
	err  error
}

// NewCandidates opens the sequence under exclude; no round runs yet.
func NewCandidates(exclude []Rect) Candidates {
	return Candidates{excl: exclude[:len(exclude):len(exclude)], n: len(exclude)} // rounds append to a copy
}

// Next runs one round, round(the exclusions so far), and returns its
// candidate; after ok=false the sequence is over and Next is not called
// again. Every call passes the same round, which may carry state from one
// call to the next (Answer's resumes one search session). round is called,
// never kept, so it does not escape with the sequence.
func (c *Candidates) Next(round func(exclude []Rect) (Rect, Result, error)) (Rect, Result, bool) {
	region, res, err := round(c.excl)
	switch {
	case errors.Is(err, ErrNoFeasibleRegion) && len(c.excl) > c.n:
	case err != nil:
		c.err = err
	case !OverlapsAny(region, c.excl[c.n:]):
		c.excl = append(c.excl, region)
		return region, res, true
	}
	return Rect{}, Result{}, false
}

// Err returns the error that ended the sequence; nil after a stop rule.
func (c *Candidates) Err() error { return c.err }

// OverlapsAny reports whether region overlaps one of earlier beyond a
// shared boundary: the test by which a greedy sequence (Candidates) ends
// on a region it found before.
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
// no extent, the rounds are one GI-DS session (Algorithm 2,
// gridindex.Session): its margins and cells are cut around what a round
// must avoid, and every round after the first resumes from the cell
// bounds and answers the one before left. Otherwise the rounds are
// DS-Search (Algorithm 1) on one searcher over the whole space or the
// extent's anchor window — the index enumerates whole-corpus cells and
// knows nothing about extents, while the window already narrows the
// search. Distances are bit-identical either way; among equally distant
// regions the two may pick different ones. The returned stats sum the
// rounds (only DS is filled without an index).
func Answer(ds *Dataset, idx *Index, req QueryRequest) (QueryResponse, IndexStats) {
	d := openDriver(ds, idx, req, max(req.TopK, 1))
	defer d.close()
	regions, results, err := Greedy(req.TopK, req.Exclude, d.round)
	return QueryResponse{Regions: regions, Results: results, Err: err}, d.stats
}

// driver is the search state of one request's rounds, opened once per
// request: the request's plan, and a GI-DS session or the DS-Search
// request its rounds share. Answer runs its rounds back to back; an
// Engine's Rounds runs one per call and releases the DS-Search searcher
// between them.
type driver struct {
	req     QueryRequest
	opt     Options
	plan    *dssearch.Plan
	err     error // why the request has no plan: every round fails with it
	indexed bool
	gids    gridindex.Session
	plain   *dssearch.Request // opened by the first un-indexed round
	stats   IndexStats
	held    SearchStats // the work of the searchers released so far
}

// openDriver opens the rounds of req over ds, at most n of them; idx, if
// non-nil, must be the index for the query's composite over ds. It
// resolves the pyramid the rounds read — Options.Pyramid when it was
// built for ds and the query's composite, else one built over ds — and
// compiles the query against it once (dssearch.Compile): every searcher
// of every round, its sweep solver and the GI-DS cell bounds read that
// one plan. Search scratch comes from the process's free list, whose
// slabs a round hands back when its searcher is released.
func openDriver(ds *Dataset, idx *Index, req QueryRequest, n int) driver {
	d := driver{req: req}
	if req.Options != nil {
		d.opt = *req.Options
	}
	if d.opt.Ctx == nil {
		d.opt.Ctx = req.Ctx
	}
	// A request no search can take fails before a pyramid is built for it.
	if d.err = dssearch.CheckRequest(req.A, req.B, req.Within, d.opt); d.err != nil {
		return d
	}
	if d.plan, d.err = dssearch.Compile(ds, req.Query, d.opt.Pyramid); d.err != nil {
		return d
	}
	if idx != nil && req.Within == nil {
		d.indexed = true
		d.gids = gridindex.Open(idx, d.plan, req.A, req.B, d.opt, n)
	}
	return d
}

// round answers one round: the best region overlapping none of excl.
func (d *driver) round(excl []Rect) (Rect, Result, error) {
	if d.err != nil {
		return Rect{}, Result{}, d.err
	}
	if d.indexed {
		res, st, err := d.gids.Solve(excl)
		d.stats.Add(st)
		return asp.AnchorTR.RegionFor(res.Point, d.req.A, d.req.B), res, err
	}
	if d.plain == nil {
		r, err := dssearch.Open(d.plan, d.req.A, d.req.B, d.req.Within, d.opt)
		if err != nil {
			return Rect{}, Result{}, err
		}
		d.plain = r
	}
	region, res, err := d.plain.Best(excl)
	d.stats.DS = d.held
	d.stats.DS.Add(d.plain.Stats())
	return region, res, err
}

// release hands the DS-Search searcher's slab back; the next round binds
// a new one. A GI-DS session holds no searcher between rounds.
func (d *driver) release() {
	if d.plain != nil {
		d.held.Add(d.plain.Stats())
		d.plain.Close()
		d.plain = nil
	}
}

// close releases everything the rounds hold, the plan last.
func (d *driver) close() {
	d.release()
	if d.indexed {
		d.gids.Close()
	}
	d.plan.Release()
	d.plan = nil
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
	if err := dssearch.CheckExtent(req.A, req.B); err != nil {
		return QueryResponse{Err: err}
	}
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
	} else if err := dssearch.CheckWithin(*req.Within); err != nil {
		return QueryResponse{Err: err}
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
