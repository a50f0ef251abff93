package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"asrs"
	"asrs/internal/dssearch"
	"asrs/internal/faultinject"
	"asrs/internal/kernel"
)

// PartialPolicy selects what a routed query does when a shard it needs
// is unavailable (breaker open, worker panic, deadline overrun, load
// failure).
type PartialPolicy string

const (
	// Strict fails the whole request with a typed, retryable
	// *UnavailableError the moment any required shard is skipped.
	Strict PartialPolicy = "strict"
	// BestEffort answers from the surviving shards and reports the
	// skipped ones (and why) in Response.Coverage. A request that loses
	// every shard still fails with *UnavailableError.
	BestEffort PartialPolicy = "best_effort"
)

// Request is one routed query: an asrs.QueryRequest under the router's
// field names (Extent is its Within) plus the partial-result policy.
// Query converts it; everything below works on the asrs form.
type Request struct {
	Query asrs.Query
	// A, B are the answer region's width and height.
	A, B float64
	// TopK requests the k best non-overlapping regions (0 or 1 = best).
	TopK int
	// Exclude lists rectangles no answer may overlap beyond a boundary.
	Exclude []asrs.Rect
	// Extent restricts answers to regions contained in the closed
	// rectangle. Nil means the whole corpus: the router substitutes the
	// corpus's bounds expanded by 2a/2b per side, which contain every
	// candidate anchor.
	Extent *asrs.Rect
	// Policy is the partial-result policy (default Strict).
	Policy PartialPolicy
	// Options overrides the per-sub-search options (workers, delta, …).
	// A Pyramid binding is discarded: each shard binds its own.
	Options *asrs.Options
}

// SkippedShard names one shard a routed query could not use, and why.
type SkippedShard struct {
	Shard  string `json:"shard"`
	Reason string `json:"reason"`
}

// Coverage reports which shards produced a routed answer.
type Coverage struct {
	// Shards is the catalog size.
	Shards int `json:"shards"`
	// Searched lists the sub-searches that completed (shard names, plus
	// "band@<cut>" boundary bands on straddling queries).
	Searched []string `json:"searched,omitempty"`
	// Skipped lists the shards excluded from this answer.
	Skipped []SkippedShard `json:"skipped,omitempty"`
}

// Complete reports whether no shard was skipped.
func (c Coverage) Complete() bool { return len(c.Skipped) == 0 }

// Response is a routed query's answer.
type Response struct {
	Regions  []asrs.Rect
	Results  []asrs.Result
	Coverage Coverage
	Err      error
}

// UnavailableError is the typed, retryable failure of a routed query
// that lost a shard it needed: under Strict any skip, under BestEffort
// the loss of every shard. The skip list names each lost shard and the
// classified cause.
type UnavailableError struct {
	Skipped []SkippedShard
}

func (e *UnavailableError) Error() string {
	names := make([]string, len(e.Skipped))
	for i, s := range e.Skipped {
		names[i] = s.Shard + " (" + s.Reason + ")"
	}
	return "shard: unavailable: " + strings.Join(names, ", ")
}

// Temporary marks the error retryable: breakers reclose and deadlines
// reset on the next attempt.
func (e *UnavailableError) Temporary() bool { return true }

// RouterOptions tunes the router.
type RouterOptions struct {
	// Breaker configures every shard's circuit breaker (per-shard seeds
	// are derived from Breaker.Seed so jitter never aligns).
	Breaker BreakerConfig
	// disableBoundShare turns off the cross-shard shared pruning cap on
	// scatter–gather queries. Answers are dist/rep-identical either way
	// (DESIGN.md §11); it is the oracle side of the property tests, which
	// set it through export_test.go.
	disableBoundShare bool
}

// budgetFraction is the fraction of the request's remaining deadline each
// sub-search may spend, so one slow shard cannot starve the gather of its
// siblings' answers. Without a request deadline there is no per-shard
// budget.
const budgetFraction = 0.5

// Router answers extent queries over a shard catalog, every one through
// one scatter runner (scatter). Extents contained in one shard's closed
// slab are a scatter of that shard alone — bit-identical to a
// merged-corpus engine by corpus independence of the windowed search.
// Straddling extents scatter per-slab sub-extents plus cut-boundary bands
// and gather the kernel.Better-minimum, sharing a monotone best-so-far
// cap across sub-searches so a shard that already found a tight answer
// prunes its siblings' spaces (DESIGN.md §11).
type Router struct {
	cat *Catalog
	opt RouterOptions

	// How band corpora were read (bandCorpus): pyramids joined with the
	// shards' rows copied, joined with their cores built, and bands left
	// unsearched for a shard the round could not read.
	bandJoins, bandBuilds, bandSkips atomic.Int64
	// bandMisses sums the band searches' self-check misses
	// (SearchStats.SelfCheckMisses): answers whose re-evaluated distance
	// differed.
	bandMisses atomic.Int64
}

// NewRouter builds a router over the catalog and (re)arms each shard's
// breaker from opt.Breaker.
func NewRouter(cat *Catalog, opt RouterOptions) *Router {
	for i, sh := range cat.Shards() {
		cfg := opt.Breaker
		cfg.Seed = cfg.Seed + int64(i)*7919
		sh.breaker = NewBreaker(cfg)
	}
	return &Router{cat: cat, opt: opt}
}

// Catalog returns the routed catalog.
func (r *Router) Catalog() *Catalog { return r.cat }

// Insert routes a batch of objects to their owning shards (half-open
// slab assignment) and appends each group through the shard engine's
// durable ingest path. The batch is atomic per shard, not across
// shards; the first error aborts the remaining groups. An object the
// schema refuses refuses the whole batch before any shard stages it.
func (r *Router) Insert(objs []asrs.Object) error {
	if err := (&asrs.Dataset{Schema: r.cat.seed.Schema, Objects: objs}).Validate(); err != nil {
		return fmt.Errorf("shard: insert: %w", err)
	}
	groups := make(map[int][]asrs.Object)
	for _, o := range objs {
		i := r.cat.ShardFor(o.Loc.X)
		groups[i] = append(groups[i], o)
	}
	idxs := make([]int, 0, len(groups))
	for i := range groups {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		sh := r.cat.Shards()[i]
		eng, err := sh.Engine()
		if err != nil {
			sh.breaker.Failure()
			return err
		}
		if err := eng.InsertBatch(groups[i]); err != nil {
			return fmt.Errorf("shard %s: %w", sh.Name(), err)
		}
	}
	return nil
}

// Query answers one routed request.
func (r *Router) Query(ctx context.Context, req Request) Response {
	return r.Answer(ctx, asrs.QueryRequest{
		Query:   req.Query,
		A:       req.A,
		B:       req.B,
		TopK:    req.TopK,
		Exclude: req.Exclude,
		Within:  req.Extent,
		Options: req.Options,
	}, req.Policy)
}

// Answer answers one request in the library's own form under a partial
// policy ("" selects Strict), in a session of its own. Within is the
// routing key; nil means the whole corpus (see Request.Extent). A Pyramid
// binding of the request's Options is discarded: each shard binds its own.
func (r *Router) Answer(ctx context.Context, req asrs.QueryRequest, pol PartialPolicy) Response {
	if req.Ctx != nil {
		ctx = req.Ctx
	}
	s := r.Open(ctx, pol)
	defer s.Close()
	return s.answer(req)
}

// Session is one routed request: it pins a shard's epoch view the first
// time the request reads the shard, and every sub-search, band join,
// default extent and Dataset of the request reads that view. Its first
// round fixes the sub-searches, so each band is joined once, and a top-k's
// rounds, one-shot or streamed, answer on one object set (DESIGN.md §11).
// Rounds run one after another. An open session holds its views in memory.
type Session struct {
	r     *Router
	ctx   context.Context
	pol   PartialPolicy
	mu    sync.Mutex
	views []asrs.Epoch // by shard index, zero until pinned
	tasks []subTask    // nil until the first round
}

// Open opens a session under ctx (nil is none) and a partial policy (""
// selects Strict).
func (r *Router) Open(ctx context.Context, pol PartialPolicy) *Session {
	if ctx == nil {
		ctx = context.Background()
	}
	if pol == "" {
		pol = Strict
	}
	return &Session{r: r, ctx: ctx, pol: pol, views: make([]asrs.Epoch, len(r.cat.shards))}
}

// Close lets go of the session's views and band corpora; no round follows.
func (s *Session) Close() { s.views, s.tasks = nil, nil }

// pin is the one read of a shard's epoch for a request: the session's view,
// else the engine's current epoch, pinned now. With load the engine is
// loaded (a sub-search charges a load error to the breaker; other reads
// ignore it), else read only if loaded; nil means the seed slab alone.
func (s *Session) pin(sh *Shard, load bool) (*asrs.Epoch, error) {
	eng := sh.Loaded()
	if load {
		var err error
		if eng, err = sh.Engine(); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ep := &s.views[sh.index]
	if *ep == (asrs.Epoch{}) {
		if eng == nil {
			return nil, nil
		}
		*ep = eng.Epoch()
	}
	return ep, nil
}

// Dataset is the session's merged corpus, which a request represents its
// region targets and filters against: the seed objects, then each view's
// inserts in shard order. A shard whose breaker is closed is pinned
// through its load, so the inserts it recovers from its WAL count.
func (s *Session) Dataset() *asrs.Dataset {
	seed := s.r.cat.seed
	objs := slices.Clip(seed.Objects) // appending copies, never writes the seed
	for _, sh := range s.r.cat.shards {
		if ep, _ := s.pin(sh, sh.breaker.closed()); ep != nil {
			objs = append(objs, ep.Dataset().Objects[len(sh.seed.Objects):]...)
		}
	}
	return &asrs.Dataset{Schema: seed.Schema, Objects: objs}
}

// Round answers a stream's single-best request under the exclusions so
// far: the first call's request with a longer Exclude (Ctx ignored).
func (s *Session) Round(req asrs.QueryRequest) (asrs.QueryResponse, *Coverage) {
	resp := s.answer(req)
	return asrs.QueryResponse{Regions: resp.Regions, Results: resp.Results, Err: resp.Err}, &resp.Coverage
}

// Answer answers a one-shot request, top-k included, on the session's
// views: Round's call, which runs a whole request as Router.Answer does.
func (s *Session) Answer(req asrs.QueryRequest) (asrs.QueryResponse, *Coverage) { return s.Round(req) }

// answer answers req on the session's views; the first call that
// validates fixes the sub-searches.
func (s *Session) answer(req asrs.QueryRequest) Response {
	req.Ctx = nil // sub-searches run under per-shard budgets carved from s.ctx
	if s.pol != Strict && s.pol != BestEffort {
		return Response{Err: fmt.Errorf("shard: unknown partial policy %q", s.pol)}
	}
	if s.tasks == nil {
		if err := dssearch.CheckExtent(req.A, req.B); err != nil {
			return Response{Err: err}
		}
		var e asrs.Rect
		if req.Within != nil {
			e = *req.Within
			if err := dssearch.CheckWithin(e); err != nil {
				return Response{Err: err}
			}
		} else {
			e = s.defaultExtent(req.Query.F, req.A, req.B)
		}
		if e.Width() < req.A || e.Height() < req.B {
			return Response{Err: asrs.ErrExtentTooSmall}
		}
		s.tasks = s.r.tasks(e, req.A)
	}
	return s.route(req)
}

// defaultExtent is the whole-corpus extent: the corpus's bounds expanded
// by 2a/2b per side, which contain every anchor whose region can cover an
// object (anchors live within a/b below-left of the object) and leave
// room for empty-coverage anchors beside them. No object is scanned: a
// shard with a view — pinned through its load when its breaker is closed
// — gives its epoch geometry's bounds, any other its seed slab's,
// computed when the catalog was built.
func (s *Session) defaultExtent(f *asrs.Composite, a, b float64) asrs.Rect {
	e := asrs.Rect{MinX: math.Inf(1), MinY: math.Inf(1), MaxX: math.Inf(-1), MaxY: math.Inf(-1)}
	for _, sh := range s.r.cat.Shards() {
		hull := sh.seedBounds
		if ep, _ := s.pin(sh, sh.breaker.closed()); ep != nil {
			// A pyramid that cannot build fails the shard's sub-search.
			if p, err := ep.Pyramid(f); err == nil {
				hull = p.Geometry().Bounds()
			}
		}
		e = e.Union(hull)
	}
	if e.MinX > e.MaxX {
		return asrs.Rect{MinX: 0, MinY: 0, MaxX: 2 * a, MaxY: 2 * b}
	}
	e.MinX -= 2 * a
	e.MaxX += 2 * a
	e.MinY -= 2 * b
	e.MaxY += 2 * b
	return e
}

// subOptions resolves the search options a pinned sub-search runs with:
// the request's override or the catalog's engine template, stripped of
// the cross-corpus pyramid binding (each shard binds its own; a band
// search binds its joined pyramid), with the shared cap installed.
func (r *Router) subOptions(req asrs.QueryRequest, cap *kernel.ExtCap) asrs.Options {
	opt := r.cat.cfg.Engine.Search
	if req.Options != nil {
		opt = *req.Options
	}
	opt.Pyramid = nil
	opt.SharedCap = cap
	return opt
}

// budgetCtx carves one sub-search's deadline from the request's
// remaining budget.
func (r *Router) budgetCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	dl, ok := ctx.Deadline()
	if !ok {
		return ctx, func() {}
	}
	rem := time.Until(dl)
	if rem <= 0 {
		return ctx, func() {}
	}
	return context.WithDeadline(ctx, time.Now().Add(time.Duration(float64(rem)*budgetFraction)))
}

// guardPanics runs fn converting panics — real worker bugs or the
// shard.search.panic failpoint — into *kernel.PanicError, keeping the
// blast radius to this sub-search.
func guardPanics(fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			if pe, ok := v.(*kernel.PanicError); ok {
				err = pe
				return
			}
			err = &kernel.PanicError{Value: v}
		}
	}()
	return fn()
}

// fireShardFaults arms the shard-dispatch failpoints (chaos suite):
// a stalled shard and a panicking shard. Only shard-backed sub-searches
// fire them — a cut-boundary band is the router's own work, not a shard
// fault domain.
func fireShardFaults() {
	if f, ok := faultinject.Check("shard.search.slow"); ok && f.Action == faultinject.ActSleep {
		f.Sleep()
	}
	if f, ok := faultinject.Check("shard.search.panic"); ok && f.Action == faultinject.ActPanic {
		panic(f.PanicValue())
	}
}

// subOutcome is one sub-search's classified result.
type subOutcome struct {
	name       string
	shard      *Shard // nil for band sub-searches
	resp       asrs.QueryResponse
	found      bool   // completed with an answer (else healthily with none)
	skipReason string // shard fault: why this shard (or band) was skipped
	fatal      error  // non-shard failure: fails the request under any policy
}

// classify folds a completed sub-search's error into the outcome and
// the shard's breaker. Infeasibility is health, not fault; a panic or a
// blown per-shard budget is a shard fault (skippable); a dead parent
// context fails the request itself.
func (r *Router) classify(ctx context.Context, o *subOutcome, err error) {
	br := (*Breaker)(nil)
	if o.shard != nil {
		br = o.shard.breaker
	}
	switch {
	case err == nil:
		if br != nil {
			br.Success()
		}
		o.found = true
	case errors.Is(err, asrs.ErrExtentTooSmall), errors.Is(err, asrs.ErrNoFeasibleRegion):
		if br != nil {
			br.Success()
		}
	case ctx.Err() != nil:
		// The request itself is dead; nothing shard-specific to record.
		o.fatal = ctx.Err()
	default:
		if br == nil {
			// Band sub-searches run on a corpus the router read itself:
			// failing one is not a shard fault and cannot be skipped
			// without a silent coverage gap.
			o.fatal = err
			return
		}
		br.Failure()
		switch {
		case isPanic(err):
			o.skipReason = fmt.Sprintf("panic: %v", err)
		case errors.Is(err, context.DeadlineExceeded):
			o.skipReason = "deadline: per-shard budget exceeded"
		default:
			o.skipReason = fmt.Sprintf("load: %v", err)
		}
	}
}

func isPanic(err error) bool {
	var pe *kernel.PanicError
	return errors.As(err, &pe)
}

// subTask is one scatter target: a shard's slab sub-extent (engine
// backed) or a cut-boundary band (searched engine-less over the band's
// corpus and pyramid, which the band's first searched round joins from
// the session's views).
type subTask struct {
	name string
	sh   *Shard
	win  asrs.Rect
	band *asrs.Dataset
	pyr  *asrs.Pyramid
}

// tasks splits an extent into its sub-searches. An extent contained in
// one shard's closed slab is that shard's alone. An extent spanning
// several slabs is per-shard sub-extents V_i = E ∩ slab_i, which answer
// regions inside one slab, and for every interior cut c a band B_c = E ∩
// [c-a, c+a]×ℝ, which answers the regions straddling that cut (their
// bottom-left anchors lie within a of the cut, so the band's anchor
// window contains them). Every candidate region of E lies in some
// sub-extent, each sub-extent is inside E, and each sub-search returns
// its kernel.Better-minimum — so the gathered minimum equals the
// merged-corpus windowed answer.
func (r *Router) tasks(e asrs.Rect, a float64) []subTask {
	shards := r.cat.Shards()
	for _, sh := range shards {
		if sh.lo <= e.MinX && e.MaxX <= sh.hi {
			return []subTask{{name: sh.Name(), sh: sh, win: e}}
		}
	}
	tasks := make([]subTask, 0, len(shards)+len(r.cat.cuts))
	for _, sh := range shards {
		if win := e.Intersect(asrs.Rect{MinX: sh.lo, MinY: e.MinY, MaxX: sh.hi, MaxY: e.MaxY}); win.MinX <= win.MaxX {
			tasks = append(tasks, subTask{name: sh.Name(), sh: sh, win: win})
		}
	}
	for _, c := range r.cat.Cuts() {
		if e.MinX < c && c < e.MaxX {
			win := e.Intersect(asrs.Rect{MinX: c - a, MinY: e.MinY, MaxX: c + a, MaxY: e.MaxY})
			tasks = append(tasks, subTask{name: fmt.Sprintf("band@%g", c), win: win})
		}
	}
	return tasks
}

// route answers a request from its tasks. One task — a contained extent —
// is one scatter whose one call carries the whole request (top-k,
// exclusions), so the answer is the shard's own, every bit of a
// merged-corpus run. Several are asrs.Greedy — the single-engine greedy
// rounds — with one scatter–gather pass of the single-best request as
// its round. The coverage is the rounds' together.
func (s *Session) route(req asrs.QueryRequest) Response {
	searched := map[string]bool{}
	skipped := map[string]string{}
	round := func(sub asrs.QueryRequest) ([]subOutcome, error) {
		outs := s.scatter(sub)
		cov, err := gather(outs, s.pol)
		for _, n := range cov.Searched {
			searched[n] = true
		}
		for _, s := range cov.Skipped {
			if _, dup := skipped[s.Shard]; !dup {
				skipped[s.Shard] = s.Reason
			}
		}
		return outs, err
	}
	var resp Response
	if len(s.tasks) == 1 {
		outs, err := round(req)
		if err == nil {
			o := &outs[0].resp
			resp.Regions, resp.Results, err = o.Regions, o.Results, o.Err
		}
		resp.Err = err
	} else {
		resp.Regions, resp.Results, resp.Err = asrs.Greedy(req.TopK, req.Exclude, func(excl []asrs.Rect) (asrs.Rect, asrs.Result, error) {
			sub := req
			sub.TopK, sub.Exclude = 0, excl
			outs, err := round(sub)
			if err != nil {
				return asrs.Rect{}, asrs.Result{}, err
			}
			return best(outs)
		})
	}
	resp.Coverage = finishCoverage(Coverage{Shards: len(s.r.cat.Shards())}, searched, skipped)
	return resp
}

// bandCorpus reads a band's corpus and its pyramid: the objects with x
// strictly inside the band window, the only ones whose anchor rectangles
// can reach its anchor window (corpus independence, DESIGN.md §11). The
// band's pyramid is joined from the pyramids of the session's views of
// the shards whose slabs meet the window (dssearch.JoinPyramids): each
// one's run of the window, copied with its rows. A shard is pinned through
// the load its sub-search performs, and only when this round's breaker
// admitted it; a shard not admitted, or unable to load, is returned as
// lost and the band is not searched. Slabs are disjoint and in x order, so
// a join's runs concatenated in slab order are sorted as a master is, and
// a join sorts nothing.
func (s *Session) bandCorpus(win asrs.Rect, f *asrs.Composite, admitted []bool) (ds *asrs.Dataset, p *asrs.Pyramid, lost *Shard, err error) {
	var ps []*asrs.Pyramid
	for _, sh := range s.r.cat.Shards() {
		if !(sh.lo < win.MaxX && win.MinX < sh.hi) {
			continue
		}
		if !admitted[sh.index] {
			return nil, nil, sh, nil
		}
		ep, err := s.pin(sh, true)
		if err != nil {
			return nil, nil, sh, nil
		}
		if p, err = ep.Pyramid(f); err != nil {
			return nil, nil, nil, err
		}
		ps = append(ps, p)
	}
	ds, p, copied, err := dssearch.JoinPyramids(ps, win.MinX, win.MaxX)
	if err != nil {
		return nil, nil, nil, err
	}
	if copied {
		s.r.bandJoins.Add(1)
	} else {
		s.r.bandBuilds.Add(1)
	}
	return ds, p, nil, nil
}

func finishCoverage(cov Coverage, searched map[string]bool, skipped map[string]string) Coverage {
	for n := range searched {
		if _, bad := skipped[n]; !bad {
			cov.Searched = append(cov.Searched, n)
		}
	}
	sort.Strings(cov.Searched)
	for n, why := range skipped {
		cov.Skipped = append(cov.Skipped, SkippedShard{Shard: n, Reason: why})
	}
	sort.Slice(cov.Skipped, func(i, j int) bool { return cov.Skipped[i].Shard < cov.Skipped[j].Shard })
	return cov
}

// scatter runs one sub-search of req per task, each under its task's
// window, concurrently — the one runner of every routed request, so
// admission, the shard.search.* failpoints, the deadline budget, the
// panic guard and the classification exist once — and returns their
// classified outcomes. A sub-search pins its Options only when it must:
// under the straddle's shared cap, whose answer is not the request's
// own, or when the request brought its own (δ). Any other shard
// sub-search is the request as a client would send it, and joins an
// identical search in flight on its shard's pinned view (Epoch.QueryCtx).
func (s *Session) scatter(req asrs.QueryRequest) []subOutcome {
	tasks := s.tasks
	var sharedCap *kernel.ExtCap
	if len(tasks) > 1 && s.r.subOptions(req, nil).Delta == 0 && !s.r.opt.disableBoundShare {
		sharedCap = kernel.NewExtCap()
	}
	outs := make([]subOutcome, len(tasks))
	admitted := make([]bool, len(s.r.cat.Shards()))
	for i, t := range tasks {
		outs[i].name, outs[i].shard = t.name, t.sh
		if t.sh != nil {
			if admitted[t.sh.index] = t.sh.breaker.Allow(); !admitted[t.sh.index] {
				outs[i].skipReason = "breaker_open"
			}
		}
	}
	var wg sync.WaitGroup
	for i := range tasks {
		t, o := &tasks[i], &outs[i]
		if o.skipReason != "" {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub := req
			sub.Within = &t.win
			if t.sh == nil || sharedCap != nil || req.Options != nil {
				opt := s.r.subOptions(req, sharedCap)
				sub.Options = &opt
			}
			err := guardPanics(func() error {
				if t.sh != nil {
					fireShardFaults()
					ep, err := s.pin(t.sh, true)
					if err != nil {
						return err
					}
					bctx, cancel := s.r.budgetCtx(s.ctx)
					defer cancel()
					o.resp = ep.QueryCtx(bctx, sub)
					return o.resp.Err
				}
				if t.band == nil {
					// Read once, by the first round that can; later rounds
					// search the same corpus. The rounds run one after another.
					var lost *Shard
					var err error
					if t.band, t.pyr, lost, err = s.bandCorpus(t.win, req.Query.F, admitted); lost != nil {
						o.skipReason = lost.Name()
						s.r.bandSkips.Add(1)
						return nil
					} else if err != nil {
						return err
					}
				}
				sub.Options.Pyramid = t.pyr
				bctx, cancel := s.r.budgetCtx(s.ctx)
				defer cancel()
				sub.Ctx = bctx
				var st asrs.IndexStats
				o.resp, st = asrs.Answer(t.band, nil, sub)
				s.r.bandMisses.Add(int64(st.DS.SelfCheckMisses))
				return o.resp.Err
			})
			if o.skipReason == "" {
				s.r.classify(s.ctx, o, err)
			}
		}()
	}
	wg.Wait()
	return outs
}

// gather folds a scatter's outcomes into its coverage and fails it on a
// fatal sub-search, or on a skip its policy does not allow: under Strict
// any, under BestEffort the loss of every shard.
func gather(outs []subOutcome, pol PartialPolicy) (Coverage, error) {
	var cov Coverage
	completed := 0
	for i := range outs {
		o := &outs[i]
		switch {
		case o.fatal != nil:
			return cov, o.fatal
		case o.skipReason != "":
			cov.Skipped = append(cov.Skipped, SkippedShard{Shard: o.name, Reason: o.skipReason})
		default:
			if o.shard != nil {
				// Bands don't count: they only cover cut-adjacent regions,
				// so an answer with every shard lost is no answer.
				completed++
			}
			cov.Searched = append(cov.Searched, o.name)
		}
	}
	if len(cov.Skipped) > 0 && (pol == Strict || completed == 0) {
		return cov, &UnavailableError{Skipped: cov.Skipped}
	}
	return cov, nil
}

// best returns the kernel.Better-minimum across a scatter's answers.
func best(outs []subOutcome) (asrs.Rect, asrs.Result, error) {
	var bestRes asrs.Result
	var bestRegion asrs.Rect
	found := false
	for i := range outs {
		if o := &outs[i]; o.found {
			if region, res := o.resp.Best(); !found || kernel.Better(res, bestRes) {
				bestRes, bestRegion, found = res, region, true
			}
		}
	}
	if !found {
		return asrs.Rect{}, asrs.Result{}, asrs.ErrNoFeasibleRegion
	}
	return bestRegion, bestRes, nil
}

// Stats snapshots the catalog for /stats: slab bounds (nil = unbounded;
// JSON cannot carry ±Inf), load state, breaker state, and the engine's
// own serving counters when loaded.
func (r *Router) Stats() RouterStats {
	shards := r.cat.Shards()
	st := RouterStats{Cuts: r.cat.Cuts(), Shards: make([]ShardInfo, 0, len(shards)),
		BandJoins: r.bandJoins.Load(), BandBuilds: r.bandBuilds.Load(), BandSkips: r.bandSkips.Load(),
		SelfCheckMisses: r.bandMisses.Load()}
	for _, sh := range shards {
		info := ShardInfo{
			Name:        sh.Name(),
			Index:       sh.Index(),
			SeedObjects: len(sh.seed.Objects),
			Breaker:     sh.breaker.Status(),
		}
		if !math.IsInf(sh.lo, -1) {
			lo := sh.lo
			info.SlabLo = &lo
		}
		if !math.IsInf(sh.hi, 1) {
			hi := sh.hi
			info.SlabHi = &hi
		}
		if eng := sh.Loaded(); eng != nil {
			info.Loaded = true
			es := eng.Stats()
			info.Ingested = int(es.Ingested)
			info.Engine = &es
		}
		st.Shards = append(st.Shards, info)
	}
	return st
}

// ShardInfo is one shard's /stats entry.
type ShardInfo struct {
	Name        string            `json:"name"`
	Index       int               `json:"index"`
	SlabLo      *float64          `json:"slab_lo,omitempty"`
	SlabHi      *float64          `json:"slab_hi,omitempty"`
	SeedObjects int               `json:"seed_objects"`
	Loaded      bool              `json:"loaded"`
	Ingested    int               `json:"ingested,omitempty"`
	Breaker     BreakerStatus     `json:"breaker"`
	Engine      *asrs.EngineStats `json:"engine,omitempty"`
}

// RouterStats is the router's /stats document.
type RouterStats struct {
	Cuts   []float64   `json:"cuts,omitempty"`
	Shards []ShardInfo `json:"shards"`
	// BandJoins counts the straddling queries' bands whose pyramid was
	// joined from the shards' with their rows copied, BandBuilds those
	// joined with their core built on the joined geometry (the rows could
	// not be copied), and BandSkips the bands a round left unsearched
	// because a shard their window meets was not admitted or could not
	// load.
	BandJoins  int64 `json:"band_joins"`
	BandBuilds int64 `json:"band_builds"`
	BandSkips  int64 `json:"band_skips"`
	// SelfCheckMisses counts the band searches' answers whose distance,
	// re-evaluated at their point, differed (a shard's own searches count
	// theirs in its engine's stats). It must read 0.
	SelfCheckMisses int64 `json:"self_check_misses"`
}
