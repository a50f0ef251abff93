package asrs

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"asrs/internal/dssearch"
	"asrs/internal/gridindex"
	"asrs/internal/kernel"
	"asrs/internal/wal"
)

// EngineOptions configures an Engine.
type EngineOptions struct {
	// IndexGranularity selects the grid granularity g (g×g cells) of the
	// lazily built per-composite indexes every un-windowed request rides
	// (GI-DS). Zero disables indexing: every query runs plain DS-Search.
	IndexGranularity int
	// Search supplies the default search options (grid granularity,
	// Workers, Delta, …) for requests that do not carry their own.
	Search Options
	// BatchParallelism caps the number of searches the engine runs at
	// once, whichever calls they came from — Query, QueryCtx, the members
	// of a QueryBatch; the rest queue in arrival order. Values <= 0 select
	// runtime.GOMAXPROCS(0).
	BatchParallelism int
	// DisablePyramid stops the engine's own searches from binding the
	// per-composite aggregate pyramid (the dataset-level aggregation layer
	// every query reads; DESIGN.md §6): each search builds a one-shot
	// pyramid of its own. The epoch pyramid is still built where something
	// else reads it — Pyramid (a router's bands join it), the grid index,
	// Warm. Answers are bit-identical either way; the switch exists for
	// ablation and as the oracle side of the pyramid property tests.
	DisablePyramid bool
	// DisableBatchGrouping is inert: the batch grouping pass it switched
	// off is gone (a batch's members join identical searches in flight
	// like any other request). The field stays until bench/, which sets
	// it, can change (ROADMAP, signatures to release).
	DisableBatchGrouping bool
	// Ingest configures streaming ingest (Insert/InsertBatch) and its
	// durability; see IngestOptions. The zero value serves a static
	// dataset with memory-only inserts.
	Ingest IngestOptions
}

// Engine is the serving-layer entry point: it owns a dataset plus lazily
// built, cached per-composite grid indexes, and answers similarity
// queries through safe concurrent Query/QueryBatch calls. The seed
// dataset must not be mutated while the engine serves it; growth goes
// through Insert/InsertBatch, which stage objects for the next epoch
// view. Views, indexes and pyramids are immutable once built, so any
// number of goroutines may query in parallel, each search running on the
// goroutine that asked for it.
type Engine struct {
	ds  *Dataset // seed corpus (immutable)
	opt EngineOptions

	// view is the current epoch: an immutable combined dataset
	// (seed ++ staged inserts) with its per-composite index and pyramid
	// caches. Queries capture one view per request (or per batch) so
	// every binding — dataset, index, pyramid — is coherent. viewMu
	// serializes materialization of new epochs; lock order is viewMu →
	// ingestMu → mu.
	view   atomic.Pointer[engineView]
	viewMu sync.Mutex

	mu sync.Mutex

	// slots bounds the searches the engine runs at once (flight.go).
	slots slots

	// Streaming-ingest state (stream.go). staged grows append-only under
	// ingestMu; stagedLen mirrors its length for lock-free staleness
	// checks in currentView.
	ingestMu     sync.Mutex
	staged       []Object
	wlog         *wal.Log
	ingestClosed bool
	stagedLen    atomic.Int64

	nIngested atomic.Int64

	// Epoch-pyramid accounting: delta folds that patched their base, folds
	// a gate refused (answered by a full rebuild), and the time spent in
	// either kind of build.
	nFolds         atomic.Int64
	nFoldFallbacks atomic.Int64
	foldNanos      atomic.Int64
	rebuildNanos   atomic.Int64
	nGeoFolds      atomic.Int64

	// Serving counters (atomic; snapshot via Stats). Queries counts every
	// answered request, single or batched.
	nQueries   atomic.Int64
	nBatches   atomic.Int64
	nDedup     atomic.Int64
	nErrors    atomic.Int64
	nCancelled atomic.Int64
	// nIndexedExcl counts GI-DS rounds that ran under a non-empty
	// exclusion list (EngineStats.IndexedExclusionRounds), nSelfCheck the
	// answers whose self-check missed (EngineStats.SelfCheckMisses).
	nIndexedExcl atomic.Int64
	nSelfCheck   atomic.Int64
	// Searches that queued for an execution slot, and their total wait.
	nSlotWaits    atomic.Int64
	slotWaitNanos atomic.Int64

	// lat is the executed-search latency histogram behind the Stats
	// percentiles. One observation per search actually run: a request
	// that joined a search in flight, or was dead before its search could
	// start, adds none.
	lat latencyHist
}

// EngineStats is a point-in-time snapshot of an engine's serving
// counters (see Engine.Stats).
type EngineStats struct {
	// Queries counts answered requests, batched or not.
	Queries int64 `json:"queries"`
	// Batches counts QueryBatch/QueryBatchCtx calls.
	Batches int64 `json:"batches"`
	// DedupHits counts requests — single or members of a batch — answered
	// by copying the response of a byte-identical search already in flight
	// instead of searching.
	DedupHits int64 `json:"dedup_hits"`
	// PreparedShared is always 0: batches no longer share prepared query
	// shapes. The field stays until bench/, which reads it, can change
	// (ROADMAP, signatures to release).
	PreparedShared int64 `json:"prepared_shared"`
	// Errors counts responses delivered with a non-nil Err.
	Errors int64 `json:"errors"`
	// Cancelled counts responses whose Err was a context error
	// (deadline exceeded or cancellation); also included in Errors.
	Cancelled int64 `json:"cancelled"`
	// IndexedExclusionRounds counts completed search rounds that went
	// through the grid index under a non-empty exclusion list: rounds
	// 2…k of a top-k, and every round of a request that excludes
	// something itself. Zero with indexing off or windowed traffic only.
	IndexedExclusionRounds int64 `json:"indexed_exclusion_rounds"`
	// SelfCheckMisses counts answers of executed searches and rounds whose
	// distance, re-evaluated at the answer's point, differed from the one
	// the search ranked them by (dssearch's Settle). The answer is served
	// all the same; any count other than 0 is a defect.
	SelfCheckMisses int64 `json:"self_check_misses"`
	// SlotWaits counts searches that found every execution slot taken and
	// queued for one; SlotWaitMs is their cumulative wait.
	// Together with the latency percentiles (which start when a search
	// does) they tell "slow because it waited" from "slow because it
	// searched".
	SlotWaits  int64   `json:"slot_waits"`
	SlotWaitMs float64 `json:"slot_wait_ms"`
	// Indexes and Pyramids count the per-composite caches of the current
	// epoch view.
	Indexes  int `json:"indexes"`
	Pyramids int `json:"pyramids"`
	// Ingested counts objects appended since the seed corpus (including
	// objects recovered from the WAL at boot).
	Ingested int64 `json:"ingested"`
	// Compactions and CompactionErrors are always 0: the WAL is the only
	// durable form of ingested objects, and nothing compacts it. The
	// fields stay until bench/, which reads them, can change (ROADMAP,
	// signatures to release).
	Compactions      int64 `json:"compactions"`
	CompactionErrors int64 `json:"compaction_errors"`
	// PyramidFolds counts epoch pyramids produced by the delta fold
	// (patching the previous epoch's pyramid) rather than a full rebuild;
	// PyramidFoldFallbacks counts epochs that had a base and rebuilt anyway
	// (only a base of no objects does: it has no order to fold into).
	// PyramidFoldMs and PyramidRebuildMs are the
	// cumulative build times of the two kinds — folds that patched, and
	// full builds (fallbacks and first builds alike).
	PyramidFolds         int64   `json:"pyramid_folds"`
	PyramidFoldFallbacks int64   `json:"pyramid_fold_fallbacks"`
	PyramidFoldMs        float64 `json:"pyramid_fold_ms"`
	PyramidRebuildMs     float64 `json:"pyramid_rebuild_ms"`
	// LatencyCount counts latency observations — one per executed
	// search (a request that joined one, or whose context was dead before
	// its search could start, adds none) — and the percentiles estimate
	// the executed-search latency distribution from a log₂ histogram
	// (±50% bucket resolution, linearly interpolated).
	LatencyCount int64   `json:"latency_count"`
	LatencyP50Ms float64 `json:"latency_p50_ms"`
	LatencyP95Ms float64 `json:"latency_p95_ms"`
	LatencyP99Ms float64 `json:"latency_p99_ms"`
}

// Stats snapshots the engine's serving counters. Safe for concurrent
// use; counters are read individually, so a snapshot taken mid-batch may
// be internally skewed by in-flight requests.
func (e *Engine) Stats() EngineStats {
	v := e.view.Load()
	e.mu.Lock()
	ni, np := len(v.indexes), len(v.pyramids)
	e.mu.Unlock()
	lc, p50, p95, p99 := e.lat.summary()
	return EngineStats{
		Queries:                e.nQueries.Load(),
		Batches:                e.nBatches.Load(),
		DedupHits:              e.nDedup.Load(),
		Errors:                 e.nErrors.Load(),
		Cancelled:              e.nCancelled.Load(),
		IndexedExclusionRounds: e.nIndexedExcl.Load(),
		SelfCheckMisses:        e.nSelfCheck.Load(),
		SlotWaits:              e.nSlotWaits.Load(),
		SlotWaitMs:             float64(e.slotWaitNanos.Load()) / 1e6,
		Indexes:                ni,
		Pyramids:               np,
		Ingested:               e.nIngested.Load(),
		PyramidFolds:           e.nFolds.Load(),
		PyramidFoldFallbacks:   e.nFoldFallbacks.Load(),
		PyramidFoldMs:          float64(e.foldNanos.Load()) / 1e6,
		PyramidRebuildMs:       float64(e.rebuildNanos.Load()) / 1e6,
		LatencyCount:           lc,
		LatencyP50Ms:           p50,
		LatencyP95Ms:           p95,
		LatencyP99Ms:           p99,
	}
}

// indexEntry builds its index exactly once, even under concurrent demand
// for the same composite.
type indexEntry struct {
	once sync.Once
	idx  *Index
	err  error
}

// pyramidEntry builds (or adopts) its pyramid exactly once, even under
// concurrent demand for the same composite. done flips after the build
// completes so epoch materialization can harvest finished pyramids as
// delta-fold bases without risking a wait inside once.
type pyramidEntry struct {
	once sync.Once
	p    *Pyramid
	err  error
	base *Pyramid // previous epoch's pyramid (fold base), nil for a fresh build
	done atomic.Bool
}

// geometryEntry builds, folds or adopts an epoch's geometry exactly once;
// done flips once it is set, so the next epoch can harvest it as its fold
// base without waiting inside once.
type geometryEntry struct {
	once sync.Once
	g    *dssearch.Geometry
	err  error
	done atomic.Bool
}

// engineView is one immutable epoch of the engine's logical dataset:
// the seed corpus plus the first deltaLen ingested objects, with the
// caches bound to exactly that dataset: one geometry (the master order
// every composite's pyramid shares) and the per-composite indexes and
// pyramids. The maps, basePyrs and baseGeo are
// guarded by Engine.mu; entries build under their own once. basePyrs
// holds completed pyramids inherited from the previous epoch, consumed
// (and released) by the first delta fold per composite, and baseGeo the
// previous epoch's geometry, consumed by the geometry's fold. flights
// holds the searches in progress on this epoch, by dedupKey (flight.go).
type engineView struct {
	ds       *Dataset
	deltaLen int
	geo      geometryEntry
	baseGeo  *dssearch.Geometry
	indexes  map[*Composite]*indexEntry
	pyramids map[*Composite]*pyramidEntry
	basePyrs map[*Composite]*Pyramid
	flights  map[string]*flight
}

// NewEngine validates the dataset and returns an engine serving it.
// When EngineOptions.Ingest.WALDir is set, it also recovers durable
// ingest state: the ingest snapshot is loaded, the WAL replayed (torn
// tails repaired, gaps refused), and every previously acknowledged
// insert is staged for the first epoch view.
func NewEngine(ds *Dataset, opt EngineOptions) (*Engine, error) {
	if ds == nil {
		return nil, fmt.Errorf("asrs: engine requires a dataset")
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	if opt.IndexGranularity < 0 {
		return nil, fmt.Errorf("asrs: negative index granularity %d", opt.IndexGranularity)
	}
	e := &Engine{ds: ds, opt: opt}
	e.slots.free = e.parallelism()
	// Epoch zero IS the seed dataset (same pointer), so pyramids built
	// for the seed — by Warm, or apart and installed with SetPyramid —
	// match it by identity even when recovery staged objects: those fold
	// in at first query, with the seed pyramid as the merge base.
	e.view.Store(&engineView{
		ds:       ds,
		indexes:  make(map[*Composite]*indexEntry),
		pyramids: make(map[*Composite]*pyramidEntry),
		basePyrs: make(map[*Composite]*Pyramid),
		flights:  make(map[string]*flight),
	})
	if opt.Ingest.WALDir != "" {
		if err := e.initIngest(); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Dataset returns the seed dataset (treat as read-only). Objects
// ingested since boot are NOT included; see Epoch and IngestedObjects.
func (e *Engine) Dataset() *Dataset { return e.ds }

// Epoch is a handle on one epoch view (its corpus, pyramids and searches in
// flight), unchanged by later inserts and kept in memory while held. Engine
// calls take the current one; a shard router pins one for a whole request.
type Epoch struct {
	e *Engine
	v *engineView
}

// Epoch returns a handle on the current epoch, every staged insert folded in.
func (e *Engine) Epoch() Epoch { return Epoch{e, e.currentView()} }

// Dataset is the epoch's corpus, the seed plus every object ingested
// before it (treat as read-only): a query-by-example target represented on
// it matches a search on the same epoch.
func (p Epoch) Dataset() *Dataset { return p.v.ds }

// currentView returns the epoch view covering every insert staged so
// far, materializing a new epoch if inserts arrived since the last one.
func (e *Engine) currentView() *engineView {
	v := e.view.Load()
	if int(e.stagedLen.Load()) == v.deltaLen {
		return v
	}
	return e.materializeView()
}

// materializeView builds the next epoch: a combined dataset (seed ++
// staged, one O(n) copy of the object array), fresh cache maps, and the
// previous epoch's completed pyramids as delta-fold bases. The view is
// assembled here from the immutable seed and from objects InsertBatch
// validated, which is what lets pyramidFor skip the fold's precondition
// checks. Serialized by viewMu; concurrent queries keep the old view
// until the swap.
func (e *Engine) materializeView() *engineView {
	e.viewMu.Lock()
	defer e.viewMu.Unlock()
	v := e.view.Load()
	e.ingestMu.Lock()
	n := len(e.staged)
	staged := e.staged[:n:n]
	e.ingestMu.Unlock()
	if n == v.deltaLen {
		return v
	}
	objs := make([]Object, 0, len(e.ds.Objects)+n)
	objs = append(objs, e.ds.Objects...)
	objs = append(objs, staged...)
	nv := &engineView{
		ds:       &Dataset{Schema: e.ds.Schema, Objects: objs},
		deltaLen: n,
		indexes:  make(map[*Composite]*indexEntry),
		pyramids: make(map[*Composite]*pyramidEntry),
		flights:  make(map[string]*flight),
	}
	// Harvest fold bases: the completed geometry and pyramids of the
	// previous epoch win (largest prefix), else whatever base it inherited
	// and never used. An in-flight build is simply not harvested — the
	// new epoch builds that one from scratch, answers unchanged.
	e.mu.Lock()
	nv.baseGeo = v.baseGeo
	if v.geo.done.Load() && v.geo.err == nil {
		nv.baseGeo = v.geo.g
	}
	nv.basePyrs = make(map[*Composite]*Pyramid, len(v.pyramids)+len(v.basePyrs))
	for f, p := range v.basePyrs {
		nv.basePyrs[f] = p
	}
	for f, ent := range v.pyramids {
		if ent.done.Load() && ent.err == nil && ent.p != nil {
			nv.basePyrs[f] = ent.p
		}
	}
	e.mu.Unlock()
	e.view.Store(nv)
	return nv
}

// SearchOptions returns the engine's default search options. Callers
// that pin per-request Options (which replace the defaults wholesale)
// should start from this value and override only what they mean to
// change, or settings like the configured worker bound silently revert
// to their zero-value defaults.
func (e *Engine) SearchOptions() Options { return e.opt.Search }

// Index returns the engine's cached grid index for the composite,
// building it on first use. It returns (nil, nil) when indexing is
// disabled. Concurrent callers for the same composite share one build.
//
// The cache is keyed by composite identity (the pointer), not structure:
// two composites with equal specs but different selection functions must
// not share an index, and selectors cannot be fingerprinted. Treat
// composites as long-lived singletons — one per query shape, compiled
// once at startup — or the cache rebuilds per call and grows without
// bound.
func (e *Engine) Index(f *Composite) (*Index, error) {
	return e.indexFor(e.currentView(), f)
}

// indexFor returns the view's cached grid index for the composite,
// building it on first use by binning the view's pyramid for the
// composite (pyramidFor).
func (e *Engine) indexFor(v *engineView, f *Composite) (*Index, error) {
	g := e.opt.IndexGranularity
	if g == 0 {
		return nil, nil
	}
	e.mu.Lock()
	ent, ok := v.indexes[f]
	if !ok {
		ent = &indexEntry{}
		v.indexes[f] = ent
	}
	e.mu.Unlock()
	ent.once.Do(func() {
		p, err := e.pyramidFor(v, f)
		if err == nil {
			ent.idx, err = gridindex.New(p, g, g)
		}
		ent.err = err
	})
	return ent.idx, ent.err
}

// Pyramid returns the engine's cached aggregate pyramid for the
// composite, building it on first use, DisablePyramid or not.
// Concurrent callers for the same composite share one build.
// Like Index, the cache is keyed by composite identity — treat
// composites as long-lived singletons.
func (e *Engine) Pyramid(f *Composite) (*Pyramid, error) { return e.Epoch().Pyramid(f) }

// Pyramid is Engine.Pyramid on the epoch.
func (p Epoch) Pyramid(f *Composite) (*Pyramid, error) { return p.e.pyramidFor(p.v, f) }

// geometryFor returns the view's geometry, building it on first use:
// folded from the previous epoch's (dssearch.FoldGeometry) when the view
// inherited one, else sorted afresh. The view's dataset is the base's
// plus objects InsertBatch validated, so the fold checks nothing. The
// base is released as soon as the fold lands.
func (e *Engine) geometryFor(v *engineView) (*dssearch.Geometry, error) {
	v.geo.once.Do(func() {
		e.mu.Lock()
		base := v.baseGeo
		v.baseGeo = nil
		e.mu.Unlock()
		if base != nil {
			v.geo.g = dssearch.FoldGeometry(base, v.ds)
			e.nGeoFolds.Add(1)
		} else {
			v.geo.g, v.geo.err = dssearch.BuildGeometry(v.ds)
		}
		v.geo.done.Store(true)
	})
	return v.geo.g, v.geo.err
}

// pyramidFor returns the view's cached pyramid for the composite, built
// on the view's geometry, so a composite pays for its own core only. When
// the view inherited the previous epoch's pyramid for this composite,
// the build is a delta fold (dssearch.FoldPyramid): the inserted tail's
// rows are spliced into a copy of the base's core, bit-identical to a
// from-scratch rebuild (which only a base of no objects takes instead).
// The base is released as soon as the build lands.
func (e *Engine) pyramidFor(v *engineView, f *Composite) (*Pyramid, error) {
	e.mu.Lock()
	ent, ok := v.pyramids[f]
	if !ok {
		ent = &pyramidEntry{base: v.basePyrs[f]}
		v.pyramids[f] = ent
	}
	e.mu.Unlock()
	ent.once.Do(func() {
		start := time.Now()
		spent := &e.rebuildNanos
		g, err := e.geometryFor(v)
		switch {
		case err != nil:
			ent.err = err
		case ent.base != nil:
			var stats *dssearch.DeltaStats
			ent.p, stats, ent.err = dssearch.FoldPyramid(ent.base, g)
			if ent.err == nil && stats.Folded {
				e.nFolds.Add(1)
				spent = &e.foldNanos
			} else {
				e.nFoldFallbacks.Add(1)
			}
			ent.base = nil
			e.mu.Lock()
			delete(v.basePyrs, f)
			e.mu.Unlock()
		default:
			ent.p, ent.err = dssearch.BuildPyramidOn(g, f)
		}
		spent.Add(int64(time.Since(start)))
		ent.done.Store(true)
	})
	return ent.p, ent.err
}

// SetPyramid installs a pyramid built apart from the engine (BuildPyramid)
// into its cache, so queries bind it instead of triggering a build. The
// pyramid must have been built for the current epoch's dataset and the
// composite it reports. At boot — even after WAL recovery staged objects
// — the current epoch is the seed corpus itself, so a pyramid built for
// the seed installs cleanly and later epochs fold the recovered inserts
// into it.
//
// The epoch's geometry is the first installed pyramid's when none was
// built yet; a pyramid whose order equals the epoch's geometry's is
// installed on it, so the composites of an epoch share one geometry
// however their pyramids were built.
func (e *Engine) SetPyramid(p *Pyramid) error {
	if p == nil {
		return fmt.Errorf("asrs: nil pyramid")
	}
	v := e.view.Load()
	// The cache key is the pyramid's own composite, so only dataset
	// identity needs verifying here.
	if !p.Matches(v.ds, p.Composite()) {
		return fmt.Errorf("asrs: pyramid was built for a different dataset")
	}
	v.geo.once.Do(func() {
		v.geo.g = p.Geometry()
		v.geo.done.Store(true)
	})
	p, _ = p.OnGeometry(v.geo.g)
	ent := &pyramidEntry{p: p}
	ent.once.Do(func() {}) // mark built
	ent.done.Store(true)
	e.mu.Lock()
	v.pyramids[p.Composite()] = ent
	e.mu.Unlock()
	return nil
}

// Warm eagerly builds (or finishes building) the engine's cached grid
// index and aggregate pyramid for a composite, so the first real query
// pays neither build. Serving daemons call it per composite at boot: the
// first composite's pyramid sorts the epoch's geometry, every later one
// builds only its own core on it.
func (e *Engine) Warm(f *Composite) error {
	if f == nil {
		return fmt.Errorf("asrs: warm requires a composite")
	}
	v := e.currentView()
	if _, err := e.indexFor(v, f); err != nil {
		return err
	}
	if _, err := e.pyramidFor(v, f); err != nil {
		return err
	}
	return nil
}

// options resolves a request's effective search options and binds the
// captured view's pyramid, keeping the dataset and the aggregation layer
// of one query coherent: the request's plan is compiled against it
// (Answer). The search scratch needs no binding: every search takes it
// from the process's one free list and hands it back.
func (e *Engine) options(v *engineView, req QueryRequest) Options {
	opt := e.opt.Search
	if req.Options != nil {
		opt = *req.Options
	}
	if opt.Pyramid == nil && !e.opt.DisablePyramid {
		// Bind the epoch's per-composite pyramid: every query then reads
		// the dataset-level aggregation layer instead of building a
		// one-shot pyramid of its own, which is what a search does
		// without one (DisablePyramid, or a failed build).
		if p, err := e.pyramidFor(v, req.Query.F); err == nil && p != nil {
			opt.Pyramid = p
		}
	}
	return opt
}

// Query answers one request through the one search driver (Answer):
// with indexing enabled every un-windowed request rides the cached grid
// index (GI-DS) — TopK and exclusion requests as greedy rounds, each cut
// around what it must avoid; without an index, and for every windowed
// request (Within), the rounds are plain DS-Search. Safe for concurrent
// use.
func (e *Engine) Query(req QueryRequest) QueryResponse {
	return e.QueryCtx(context.Background(), req)
}

// QueryCtx is Query bounded by a context: when ctx (or the request's own
// Ctx, which takes precedence) is cancelled or its deadline passes, the
// search stops cooperatively before the next space the kernel pops and
// the response's Err is the context error. Answers of searches that
// complete are bit-identical to an unbounded Query.
//
// Concurrent calls share work and cores (flight.go): a request
// byte-identical to a search already in flight on the same epoch waits
// for that search and receives a deep copy of its answer, and at most
// EngineOptions.BatchParallelism searches run at once, the rest queueing
// in arrival order. Both waits end with the request's own context, and
// nothing is kept once a search has ended.
func (e *Engine) QueryCtx(ctx context.Context, req QueryRequest) QueryResponse {
	return e.Epoch().QueryCtx(ctx, req)
}

// QueryCtx is Engine.QueryCtx on the epoch, joining searches in flight on it.
func (p Epoch) QueryCtx(ctx context.Context, req QueryRequest) QueryResponse {
	resp := p.e.fly(requestCtx(ctx, &req), p.v, req)
	p.e.nQueries.Add(1)
	p.e.countResponse(&resp)
	return resp
}

// requestCtx resolves the context a request runs under: its own Ctx,
// else the call's, else (nil is accepted at every Ctx entry point) none.
func requestCtx(ctx context.Context, req *QueryRequest) context.Context {
	if req.Ctx != nil {
		return req.Ctx
	}
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// parallelism resolves EngineOptions.BatchParallelism.
func (e *Engine) parallelism() int {
	if e.opt.BatchParallelism > 0 {
		return e.opt.BatchParallelism
	}
	return runtime.GOMAXPROCS(0)
}

// countResponse folds one delivered response into the serving counters.
func (e *Engine) countResponse(resp *QueryResponse) {
	if resp.Err == nil {
		return
	}
	e.nErrors.Add(1)
	if errors.Is(resp.Err, context.Canceled) || errors.Is(resp.Err, context.DeadlineExceeded) {
		e.nCancelled.Add(1)
	}
}

// answer runs one request against the captured epoch view v under its
// resolved context: it binds the request (bind) and hands the rest to
// Answer.
func (e *Engine) answer(ctx context.Context, v *engineView, req QueryRequest) QueryResponse {
	// An already-dead request (deadline passed while it queued for a slot)
	// must not pay index lookup and searcher construction for an answer
	// that is guaranteed to be discarded — and it never searched, so the
	// latency histogram does not hear of it.
	if cerr := ctx.Err(); cerr != nil {
		return QueryResponse{Err: cerr}
	}
	start := time.Now()
	defer func() { e.lat.observe(time.Since(start)) }()
	idx, req, err := e.bind(ctx, v, req)
	if err != nil {
		return QueryResponse{Err: err}
	}
	resp, stats := Answer(v.ds, idx, req)
	e.nIndexedExcl.Add(int64(stats.ExcludingRuns))
	e.nSelfCheck.Add(int64(stats.DS.SelfCheckMisses))
	return resp
}

// bind resolves a request's options on the captured view v and binds the
// view's caches: the pyramid, and for an un-windowed request the grid
// index.
func (e *Engine) bind(ctx context.Context, v *engineView, req QueryRequest) (*Index, QueryRequest, error) {
	opt := e.options(v, req)
	if opt.Ctx == nil {
		opt.Ctx = ctx
	}
	req.Options = &opt
	if req.Within != nil {
		// Only un-windowed requests can use the index (see Answer), and an
		// epoch that serves windowed traffic alone — a shard under ingest —
		// must not pay an index build per epoch for nothing.
		return nil, req, nil
	}
	idx, err := e.indexFor(v, req.Query.F)
	return idx, req, err
}

// Rounds is one request's greedy rounds run one call at a time — the lazy
// form of a one-shot top-k that query.Stream.Next drives — on the epoch
// the engine served when they were opened, whatever is inserted meanwhile.
// The first Round opens the request's search on that epoch, the driver a
// one-shot request's rounds run in (Answer): with the grid index, a GI-DS
// session every later round resumes. So one-shot and streamed rows are
// the same rows. Each round takes one execution slot and gives it back;
// between rounds Rounds holds no slot and no searcher, only the session's
// carried bounds, which Close recycles. Rounds runs on one goroutine.
type Rounds struct {
	e    *Engine
	v    *engineView
	ctx  context.Context
	n    int
	open bool
	d    driver
}

// Rounds captures the current epoch for at most n rounds of one request
// under ctx.
func (e *Engine) Rounds(ctx context.Context, n int) *Rounds { return e.Epoch().Rounds(ctx, n) }

// Rounds is Engine.Rounds on the epoch.
func (p Epoch) Rounds(ctx context.Context, n int) *Rounds {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Rounds{e: p.e, v: p.v, ctx: ctx, n: n}
}

// Dataset is the captured epoch's corpus (treat as read-only): the one a
// stream represents its targets and filters against.
func (r *Rounds) Dataset() *Dataset { return r.v.ds }

// Round answers one round: req is the single-best request under the
// exclusions so far. Every call passes the first call's request, with an
// Exclude that extends the last call's (one that does not starts the
// search over); req.Ctx is ignored — the rounds run under the context
// they were opened with. Each round counts as one query in Stats.
func (r *Rounds) Round(req QueryRequest) QueryResponse {
	e := r.e
	resp := e.slotted(r.ctx, func() QueryResponse { return r.round(req) })
	e.nQueries.Add(1)
	e.countResponse(&resp)
	return resp
}

// round runs one round in an execution slot.
func (r *Rounds) round(req QueryRequest) QueryResponse {
	e := r.e
	if cerr := r.ctx.Err(); cerr != nil {
		return QueryResponse{Err: cerr}
	}
	start := time.Now()
	defer func() { e.lat.observe(time.Since(start)) }()
	if !r.open {
		idx, req, err := e.bind(r.ctx, r.v, req)
		if err != nil {
			return QueryResponse{Err: err}
		}
		r.d, r.open = openDriver(r.v.ds, idx, req, r.n), true
	}
	defer r.d.release()
	runs, misses := r.d.stats.ExcludingRuns, r.d.stats.DS.SelfCheckMisses
	region, res, err := r.d.round(req.Exclude)
	e.nIndexedExcl.Add(int64(r.d.stats.ExcludingRuns - runs))
	e.nSelfCheck.Add(int64(r.d.stats.DS.SelfCheckMisses - misses))
	if err != nil {
		return QueryResponse{Err: err}
	}
	return QueryResponse{Regions: []Rect{region}, Results: []Result{res}}
}

// Close recycles what the rounds carry; Round must not be called
// afterwards. Rounds dropped without Close leak nothing.
func (r *Rounds) Close() {
	if r.open {
		r.d.close()
		r.open = false
	}
}

// QueryBatch answers a batch of requests. The response slice is
// index-aligned with the requests; per-request failures land in the
// corresponding response's Err.
func (e *Engine) QueryBatch(reqs []QueryRequest) []QueryResponse {
	return e.QueryBatchCtx(context.Background(), reqs)
}

// QueryBatchCtx is QueryBatch bounded by a batch-level context. A batch
// is its requests in flight together on one epoch view (so it stays
// internally coherent under concurrent inserts): each member is answered
// as QueryCtx would answer it — under its own Ctx if it has one, else the
// batch's; joining a byte-identical search in flight, a fellow member's
// or anyone else's, and queueing for one of the engine's execution slots
// otherwise — so every answer is bit-identical to the solo Query and
// batches and single requests share one CPU budget. A member whose
// search panics fails alone, with a *kernel.PanicError.
func (e *Engine) QueryBatchCtx(ctx context.Context, reqs []QueryRequest) []QueryResponse {
	return e.Epoch().QueryBatchCtx(ctx, reqs)
}

// QueryBatchCtx is Engine.QueryBatchCtx on the epoch.
func (p Epoch) QueryBatchCtx(ctx context.Context, reqs []QueryRequest) []QueryResponse {
	e, v := p.e, p.v
	out := make([]QueryResponse, len(reqs))
	if len(reqs) == 0 {
		return out
	}
	e.nBatches.Add(1)
	e.nQueries.Add(int64(len(reqs)))
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// The search runs on this goroutine up to the kernel's item
			// boundary; nothing above it would catch a panic in, say, a
			// caller-supplied selection function.
			defer func() {
				if p := recover(); p != nil {
					out[i] = QueryResponse{Err: &kernel.PanicError{Value: p, Stack: debug.Stack()}}
				}
			}()
			out[i] = e.fly(requestCtx(ctx, &reqs[i]), v, reqs[i])
		}(i)
	}
	wg.Wait()
	for i := range out {
		e.countResponse(&out[i])
	}
	return out
}

// dedupKey writes a byte-exact identity key for a request: composite
// pointer, extent, TopK, norm, target, weights and exclusion
// rectangles. Two requests with equal keys are answered identically by
// the deterministic search, so one execution serves both.
func dedupKey(kb *strings.Builder, req *QueryRequest) {
	// Lengths (with nil marked distinctly from empty) precede the
	// values: a nil weight vector means unit weights while an empty
	// non-nil one is invalid, and the two must never dedup together.
	fmt.Fprintf(kb, "%p|%x|%x|%d|%d|", req.Query.F,
		math.Float64bits(req.A), math.Float64bits(req.B), req.TopK, req.Query.Norm)
	writeVec := func(v []float64) {
		if v == nil {
			kb.WriteString("nil|")
			return
		}
		kb.WriteString(strconv.Itoa(len(v)))
		kb.WriteByte(':')
		for _, x := range v {
			kb.WriteString(strconv.FormatUint(math.Float64bits(x), 16))
			kb.WriteByte(',')
		}
		kb.WriteByte('|')
	}
	writeVec(req.Query.Target)
	writeVec(req.Query.W)
	kb.WriteString(strconv.Itoa(len(req.Exclude)))
	kb.WriteByte(':')
	for _, r := range req.Exclude {
		fmt.Fprintf(kb, "%x,%x,%x,%x;",
			math.Float64bits(r.MinX), math.Float64bits(r.MinY),
			math.Float64bits(r.MaxX), math.Float64bits(r.MaxY))
	}
	// The Within extent changes the answer: a windowed request must
	// never dedup against an unwindowed one (or a differently-windowed
	// one). nil is marked distinctly, like the vectors above.
	if req.Within == nil {
		kb.WriteString("|w:nil")
	} else {
		fmt.Fprintf(kb, "|w:%x,%x,%x,%x",
			math.Float64bits(req.Within.MinX), math.Float64bits(req.Within.MinY),
			math.Float64bits(req.Within.MaxX), math.Float64bits(req.Within.MaxY))
	}
}

// copyResponse deep-copies a canonical response into a duplicate
// request's slot — each result's Rep included, so no two responses of a
// batch alias one buffer.
func copyResponse(dst, src *QueryResponse) {
	dst.Regions = append([]Rect(nil), src.Regions...)
	dst.Results = append([]Result(nil), src.Results...)
	for i := range dst.Results {
		dst.Results[i].Rep = append([]float64(nil), dst.Results[i].Rep...)
	}
	dst.Err = src.Err
}
