package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
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
	// object hull expanded by 2a/2b per side, which contains every
	// candidate anchor.
	Extent *asrs.Rect
	// Policy is the partial-result policy (default Strict).
	Policy PartialPolicy
	// Options overrides the per-sub-search options (workers, delta, …).
	// Pyramid and Slabs bindings are discarded: each shard binds its own.
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

// Router answers extent queries over a shard catalog. Extents contained
// in one shard's closed slab route to that shard alone — bit-identical
// to a merged-corpus engine by corpus independence of the windowed
// search. Straddling extents scatter per-slab sub-extents plus
// cut-boundary bands and gather the kernel.Better-minimum, sharing a
// monotone best-so-far cap across sub-searches so a shard that already
// found a tight answer prunes its siblings' spaces (DESIGN.md §11).
type Router struct {
	cat *Catalog
	opt RouterOptions

	mu    sync.Mutex
	slabs map[*asrs.Composite]*dssearch.SlabCache // band searches' scratch

	// How band corpora were read (bandCorpus): pyramids joined with the
	// shards' rows copied, and cores built from objects.
	bandJoins, bandBuilds atomic.Int64
}

// NewRouter builds a router over the catalog and (re)arms each shard's
// breaker from opt.Breaker.
func NewRouter(cat *Catalog, opt RouterOptions) *Router {
	for i, sh := range cat.Shards() {
		cfg := opt.Breaker
		cfg.Seed = cfg.Seed + int64(i)*7919
		sh.breaker = NewBreaker(cfg)
	}
	return &Router{cat: cat, opt: opt, slabs: make(map[*asrs.Composite]*dssearch.SlabCache)}
}

// Catalog returns the routed catalog.
func (r *Router) Catalog() *Catalog { return r.cat }

// Insert routes a batch of objects to their owning shards (half-open
// slab assignment) and appends each group through the shard engine's
// durable ingest path. The batch is atomic per shard, not across
// shards; the first error aborts the remaining groups. An object the
// schema refuses refuses the whole batch before any shard stages it.
func (r *Router) Insert(objs []asrs.Object) error {
	if err := (&asrs.Dataset{Schema: r.cat.Seed().Schema, Objects: objs}).Validate(); err != nil {
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
// policy ("" selects Strict). Within is the routing key; nil means the
// whole corpus (see Request.Extent). Pyramid and Slabs bindings of the
// request's Options are discarded: each shard binds its own.
func (r *Router) Answer(ctx context.Context, req asrs.QueryRequest, pol PartialPolicy) Response {
	if req.Ctx != nil {
		ctx = req.Ctx
	}
	if ctx == nil {
		ctx = context.Background()
	}
	req.Ctx = nil // sub-searches run under per-shard budgets carved from ctx
	if pol == "" {
		pol = Strict
	}
	if pol != Strict && pol != BestEffort {
		return Response{Err: fmt.Errorf("shard: unknown partial policy %q", pol)}
	}
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
		e = r.defaultExtent(req.A, req.B)
	}
	if e.Width() < req.A || e.Height() < req.B {
		return Response{Err: asrs.ErrExtentTooSmall}
	}
	for _, sh := range r.cat.Shards() {
		if sh.lo <= e.MinX && e.MaxX <= sh.hi {
			return r.containedQuery(ctx, sh, e, req)
		}
	}
	return r.straddlingQuery(ctx, e, req, pol)
}

// defaultExtent is the whole-corpus extent: the object hull expanded by
// 2a/2b per side, which contains every anchor whose region can cover an
// object (anchors live within a/b below-left of the object) and leaves
// room for empty-coverage anchors beside the hull. The hull is scanned
// over each shard's current epoch in place (Shard.objects), with no
// merged copy.
func (r *Router) defaultExtent(a, b float64) asrs.Rect {
	e := asrs.Rect{MinX: math.Inf(1), MinY: math.Inf(1), MaxX: math.Inf(-1), MaxY: math.Inf(-1)}
	for _, sh := range r.cat.Shards() {
		for _, o := range sh.objects(sh.breaker.closed()) {
			e.MinX = math.Min(e.MinX, o.Loc.X)
			e.MinY = math.Min(e.MinY, o.Loc.Y)
			e.MaxX = math.Max(e.MaxX, o.Loc.X)
			e.MaxY = math.Max(e.MaxY, o.Loc.Y)
		}
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

// subOptions resolves the search options one sub-search runs with:
// the request's override or the catalog's engine template, stripped of
// any cross-corpus bindings (each shard binds its own pyramid and slab
// cache; a band search binds the router's slab cache), with the shared
// cap installed.
func (r *Router) subOptions(req asrs.QueryRequest, cap *kernel.ExtCap) asrs.Options {
	opt := r.cat.cfg.Engine.Search
	if req.Options != nil {
		opt = *req.Options
	}
	opt.Pyramid = nil
	opt.Slabs = nil
	opt.SharedCap = cap
	return opt
}

// bandSlabs returns the router's slab cache for band searches on the
// composite, so they recycle their grid, sweep solver, scratch buffers
// and id slices across queries as a shard engine's searches do. A band
// search reads the pyramid its corpus was joined with, or builds a
// one-shot one over the corpus (bandCorpus).
func (r *Router) bandSlabs(f *asrs.Composite) *dssearch.SlabCache {
	r.mu.Lock()
	defer r.mu.Unlock()
	sc, ok := r.slabs[f]
	if !ok {
		sc = &dssearch.SlabCache{}
		r.slabs[f] = sc
	}
	return sc
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
	region     asrs.Rect
	res        asrs.Result
	found      bool
	infeasible bool   // completed healthily with no feasible region
	skipReason string // shard fault: why this shard was skipped
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
		o.infeasible = true
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

// containedQuery answers an extent contained in one shard's closed slab
// from that shard alone — the full request (TopK, excludes) passes
// through, so the answer carries every bit of a merged-corpus run.
func (r *Router) containedQuery(ctx context.Context, sh *Shard, e asrs.Rect, req asrs.QueryRequest) Response {
	cov := Coverage{Shards: len(r.cat.Shards())}
	if !sh.breaker.Allow() {
		cov.Skipped = []SkippedShard{{Shard: sh.Name(), Reason: "breaker_open"}}
		return Response{Coverage: cov, Err: &UnavailableError{Skipped: cov.Skipped}}
	}
	o := subOutcome{name: sh.Name(), shard: sh}
	var resp asrs.QueryResponse
	err := guardPanics(func() error {
		fireShardFaults()
		eng, lerr := sh.Engine()
		if lerr != nil {
			return lerr
		}
		bctx, cancel := r.budgetCtx(ctx)
		defer cancel()
		opt := r.subOptions(req, nil)
		req.Within, req.Options = &e, &opt
		resp = eng.QueryCtx(bctx, req)
		return resp.Err
	})
	r.classify(ctx, &o, err)
	switch {
	case o.fatal != nil:
		return Response{Coverage: cov, Err: o.fatal}
	case o.skipReason != "":
		cov.Skipped = []SkippedShard{{Shard: o.name, Reason: o.skipReason}}
		return Response{Coverage: cov, Err: &UnavailableError{Skipped: cov.Skipped}}
	}
	cov.Searched = []string{o.name}
	return Response{Regions: resp.Regions, Results: resp.Results, Coverage: cov, Err: resp.Err}
}

// subTask is one scatter target: a shard's slab sub-extent (engine
// backed) or a cut-boundary band (searched engine-less over the band's
// corpus and pyramid, which the band's first round reads from the
// shards' epochs).
type subTask struct {
	name string
	sh   *Shard
	win  asrs.Rect
	band *asrs.Dataset
	pyr  *asrs.Pyramid // nil: the band's search builds a one-shot pyramid
}

// straddlingQuery scatter–gathers an extent spanning several slabs:
// per-shard sub-extents V_i = E ∩ slab_i answer regions inside one
// slab, and for every interior cut c a band B_c = E ∩ [c-a, c+a]×ℝ
// answers the regions straddling that cut (their bottom-left anchors
// lie within a of the cut, so the band's anchor window contains them).
// Every candidate region of E lies in some sub-extent, each sub-extent
// is inside E, and each sub-search returns its kernel.Better-minimum —
// so the gathered minimum equals the merged-corpus windowed answer.
// TopK is asrs.Greedy — the single-engine greedy rounds — with one
// scatter–gather pass as its round.
func (r *Router) straddlingQuery(ctx context.Context, e asrs.Rect, req asrs.QueryRequest, pol PartialPolicy) Response {
	shards := r.cat.Shards()
	tasks := make([]subTask, 0, 2*len(shards))
	for _, sh := range shards {
		win := asrs.Rect{
			MinX: math.Max(e.MinX, sh.lo), MinY: e.MinY,
			MaxX: math.Min(e.MaxX, sh.hi), MaxY: e.MaxY,
		}
		if win.MinX > win.MaxX {
			continue
		}
		tasks = append(tasks, subTask{name: sh.Name(), sh: sh, win: win})
	}
	for _, c := range r.cat.Cuts() {
		if !(e.MinX < c && c < e.MaxX) {
			continue
		}
		tasks = append(tasks, subTask{
			name: fmt.Sprintf("band@%g", c),
			win: asrs.Rect{
				MinX: math.Max(e.MinX, c-req.A), MinY: e.MinY,
				MaxX: math.Min(e.MaxX, c+req.A), MaxY: e.MaxY,
			},
		})
	}

	cov := Coverage{Shards: len(shards)}
	searched := map[string]bool{}
	skipped := map[string]string{}
	regions, results, err := asrs.Greedy(req.TopK, req.Exclude, func(excl []asrs.Rect) (asrs.Rect, asrs.Result, error) {
		region, best, roundCov, err := r.scatterRound(ctx, tasks, req, pol, excl)
		for _, n := range roundCov.Searched {
			searched[n] = true
		}
		for _, s := range roundCov.Skipped {
			if _, dup := skipped[s.Shard]; !dup {
				skipped[s.Shard] = s.Reason
			}
		}
		return region, best, err
	})
	return Response{Regions: regions, Results: results, Coverage: finishCoverage(cov, searched, skipped), Err: err}
}

// bandCorpus reads a band's corpus and its pyramid: the objects with x
// strictly inside the band window, the only ones whose anchor rectangles
// can reach its anchor window (corpus independence, DESIGN.md §11). Each
// shard whose slab meets the window is read at its current epoch, through
// the load its sub-search performs when this round's breaker admitted it
// (Shard.epoch). When every one of them has a pyramid for f, the band's
// is joined from theirs (dssearch.JoinPyramids): each one's run of the
// window, copied with its rows. Otherwise — a shard that holds only its
// seed slab, or serves without pyramids — the shards are scanned and the
// pyramid is nil: the band's search builds a one-shot one, which sorts
// the scanned objects. Slabs are disjoint and in x order, so a join's
// runs concatenated in slab order are sorted as a master is, and a join
// sorts nothing.
func (r *Router) bandCorpus(win asrs.Rect, f *asrs.Composite, admitted []bool) (*asrs.Dataset, *asrs.Pyramid) {
	var met []*Shard
	for _, sh := range r.cat.Shards() {
		if sh.lo < win.MaxX && win.MinX < sh.hi {
			met = append(met, sh)
		}
	}
	engs := make([]*asrs.Engine, len(met))
	ps := make([]*asrs.Pyramid, 0, len(met))
	for i, sh := range met {
		if engs[i] = sh.epoch(admitted[sh.index]); engs[i] != nil {
			if p, err := engs[i].Pyramid(f); err == nil && p != nil {
				ps = append(ps, p)
			}
		}
	}
	if len(ps) == len(met) {
		if ds, p, copied, err := dssearch.JoinPyramids(ps, win.MinX, win.MaxX); err == nil {
			if copied {
				r.bandJoins.Add(1)
			} else {
				r.bandBuilds.Add(1)
			}
			return ds, p
		}
	}
	var objs []asrs.Object
	for i, sh := range met {
		objs = sh.appendInX(objs, engs[i], win.MinX, win.MaxX)
	}
	r.bandBuilds.Add(1)
	return &asrs.Dataset{Schema: r.cat.Seed().Schema, Objects: objs}, nil
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

// scatterRound runs one scatter–gather pass and returns the
// kernel.Better-minimum across the sub-searches.
func (r *Router) scatterRound(ctx context.Context, tasks []subTask, req asrs.QueryRequest, pol PartialPolicy, excl []asrs.Rect) (asrs.Rect, asrs.Result, Coverage, error) {
	var sharedCap *kernel.ExtCap
	if len(tasks) > 1 && r.subOptions(req, nil).Delta == 0 && !r.opt.disableBoundShare {
		sharedCap = kernel.NewExtCap()
	}
	outs := make([]subOutcome, len(tasks))
	admitted := make([]bool, len(r.cat.Shards()))
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
			err := guardPanics(func() error {
				// One single-best windowed request per sub-search: a shard's
				// engine answers it from its own caches, a band the library's
				// driver straight over the band's corpus on the router's slabs.
				opt := r.subOptions(req, sharedCap)
				sub := req
				sub.TopK, sub.Exclude, sub.Within, sub.Options = 0, excl, &t.win, &opt
				var resp asrs.QueryResponse
				if t.sh == nil {
					if t.band == nil {
						// Read once, by the first round; later rounds search the
						// same corpus. The rounds run one after another.
						t.band, t.pyr = r.bandCorpus(t.win, req.Query.F, admitted)
					}
					opt.Pyramid, opt.Slabs = t.pyr, r.bandSlabs(req.Query.F)
					bctx, cancel := r.budgetCtx(ctx)
					defer cancel()
					sub.Ctx = bctx
					resp, _ = asrs.Answer(t.band, nil, sub)
				} else {
					fireShardFaults()
					eng, lerr := t.sh.Engine()
					if lerr != nil {
						return lerr
					}
					bctx, cancel := r.budgetCtx(ctx)
					defer cancel()
					resp = eng.QueryCtx(bctx, sub)
				}
				o.region, o.res = resp.Best()
				return resp.Err
			})
			r.classify(ctx, o, err)
		}()
	}
	wg.Wait()

	var cov Coverage
	var best asrs.Result
	var bestRegion asrs.Rect
	found := false
	completed := 0
	for i := range outs {
		o := &outs[i]
		switch {
		case o.fatal != nil:
			return asrs.Rect{}, asrs.Result{}, cov, o.fatal
		case o.skipReason != "":
			cov.Skipped = append(cov.Skipped, SkippedShard{Shard: o.name, Reason: o.skipReason})
		default:
			if o.shard != nil {
				// Bands don't count: they only cover cut-adjacent regions,
				// so an answer with every shard lost is no answer.
				completed++
			}
			cov.Searched = append(cov.Searched, o.name)
			if o.found && (!found || kernel.Better(o.res, best)) {
				best, bestRegion, found = o.res, o.region, true
			}
		}
	}
	if len(cov.Skipped) > 0 && (pol == Strict || completed == 0) {
		return asrs.Rect{}, asrs.Result{}, cov, &UnavailableError{Skipped: cov.Skipped}
	}
	if !found {
		return asrs.Rect{}, asrs.Result{}, cov, asrs.ErrNoFeasibleRegion
	}
	return bestRegion, best, cov, nil
}

// Stats snapshots the catalog for /stats: slab bounds (nil = unbounded;
// JSON cannot carry ±Inf), load state, breaker state, and the engine's
// own serving counters when loaded.
func (r *Router) Stats() RouterStats {
	shards := r.cat.Shards()
	st := RouterStats{Cuts: r.cat.Cuts(), Shards: make([]ShardInfo, 0, len(shards)),
		BandJoins: r.bandJoins.Load(), BandBuilds: r.bandBuilds.Load()}
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
	// whose core was built from the band's objects: a join whose rows
	// could not be copied, or a corpus scanned from a shard without a
	// pyramid.
	BandJoins  int64 `json:"band_joins"`
	BandBuilds int64 `json:"band_builds"`
}
