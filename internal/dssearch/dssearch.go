// Package dssearch implements the paper's primary contribution: the
// Discretize-and-Split search (DS-Search) algorithm for the ASP problem
// (paper §4), its (1+δ)-approximate variant (§6), and the ASRS front door
// (Request, request.go) that reduces a region request to ASP and maps each
// round's answer point back to a region (Theorem 1).
//
// DS-Search repeatedly discretizes a space into an n_row×n_col grid,
// evaluates clean cells exactly, lower-bounds dirty cells via Equation 1,
// prunes, and splits the surviving dirty cells into two MBR sub-spaces
// until each space either satisfies the GPS-accuracy drop condition
// (Definition 8) or runs out of unpruned dirty cells. Spaces are processed
// best-first from a min-heap keyed by lower bound.
//
// The best-first loop itself lives in internal/kernel and runs on a
// worker pool (Options.Workers): spaces are popped in deterministic
// batches, processed concurrently against a shared atomic pruning bound,
// and merged so the final answer is bit-identical for every worker count.
//
// Per-query state is concentrated in the aggregation layer of sat.go: the
// master rectangle array (sorted for grid-exact composites), flattened
// channel contributions, and the anchor-bin levels that refinement and
// id collection walk on sorted masters. Every Discretize fills its grid
// the same way — one difference-array pass over the space's rectangles
// (grid.go). Rectangle subsets flow through the kernel heap as 4-byte id
// slices recycled by per-worker arenas, so the steady state allocates
// almost nothing per space.
package dssearch

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"asrs/internal/agg"
	"asrs/internal/asp"
	"asrs/internal/attr"
	"asrs/internal/geom"
	"asrs/internal/kernel"
	"asrs/internal/sweep"
)

// Options configures a DS-Search run.
type Options struct {
	// Ctx, when non-nil, cancels the search cooperatively: the kernel
	// checks it at superstep boundaries and the front doors between
	// sub-space solves, so a cancelled or deadline-expired context stops
	// the search within one batch of work and surfaces
	// context.Canceled / context.DeadlineExceeded from the front door.
	// Cancellation never tears a superstep, so searches that complete
	// keep the bit-identical-answers guarantee unchanged.
	Ctx context.Context
	// NCol, NRow control the discretization grid (paper default 30×30).
	NCol, NRow int
	// Delta is the approximation parameter δ of §6. Zero gives the exact
	// algorithm; δ>0 returns a region within (1+δ) of the optimum.
	Delta float64
	// Workers is the size of the search worker pool; values <= 0 select
	// runtime.GOMAXPROCS(0). The answer is independent of the setting —
	// the kernel's superstep schedule is deterministic — so Workers is
	// purely a throughput knob.
	Workers int
	// BatchSize is the number of spaces the kernel pops per superstep;
	// values <= 0 select kernel.DefaultBatchSize (32). Larger batches
	// keep wide machines busier at the cost of staler pruning bounds
	// within a round. For any fixed batch size the answer is fully
	// deterministic and independent of Workers; changing the batch size
	// keeps the answer *distance* exact and identical but may resolve
	// ties between equally-distant optimum points differently (DESIGN.md
	// §4; pinned by TestSearchEquivalenceRealValued).
	BatchSize int
	// Accuracy overrides the GPS accuracies (Definition 7) used by the
	// drop condition. Zero values are computed from the rectangle edges.
	Accuracy geom.Accuracy
	// DisableSafetyNet turns off the exactness safety net (the mini-sweep
	// run on drop-satisfied spaces that still hold unpruned dirty cells;
	// see DESIGN.md §3). With the net disabled the search matches the
	// paper's pseudocode exactly but inherits its Theorem 2 caveat.
	DisableSafetyNet bool
	// DisableRefinement turns off the exact subset-enumeration
	// refinement of dirty-cell lower bounds (DESIGN.md §3). With it off,
	// cells at the boundary of the optimal region can only be resolved by
	// splitting down to the drop condition — the ablation benchmarks
	// quantify the cost. Results stay exact either way.
	DisableRefinement bool
	// Slabs, when non-nil, recycles the per-query table slabs (sorted
	// coordinate arrays, contribution tables, anchor bins, discretization
	// grids, sweep solvers, id arenas) across searches. Callers that set
	// it must call Searcher.Release (Request.Close does) when the search
	// is done.
	Slabs *SlabCache
	// Pyramid, when non-nil and built for exactly the request's dataset
	// and composite, binds the searcher (NewRegionSearcher) to the
	// persistent dataset-level aggregate pyramid instead of rebuilding the
	// per-query aggregation layer: master order, contributions,
	// certificates and anchor-bin levels are aliased, leaving one O(n)
	// pass per query (DESIGN.md §6). Answers are bit-identical to the
	// unassisted path; the binding silently falls back to the classic
	// build when it cannot guarantee that (another dataset or composite,
	// or anchor collapse under translation).
	Pyramid *Pyramid
	// SharedCap, when non-nil, attaches a cross-search shared pruning
	// cap to every bound this search creates: merge barriers publish the
	// running best distance into it, and the threshold folds sibling
	// publications back in with open (strictly-worse-only) semantics, so
	// cooperating sub-searches of one scatter–gather fan-out prune each
	// other without ever suppressing a candidate at the global optimum
	// (DESIGN.md §11). The cap only tightens pruning; the gathered
	// minimum across the fan-out is unaffected.
	SharedCap *kernel.ExtCap
}

// DefaultNCol and DefaultNRow are the paper's best-performing grid
// granularity (§7.2: n_col = n_row = 30).
const (
	DefaultNCol = 30
	DefaultNRow = 30
)

func (o Options) withDefaults() Options {
	if o.NCol <= 0 {
		o.NCol = DefaultNCol
	}
	if o.NRow <= 0 {
		o.NRow = DefaultNRow
	}
	return o
}

func (o Options) validate() error {
	if o.Delta < 0 {
		return fmt.Errorf("dssearch: negative approximation parameter δ=%g", o.Delta)
	}
	if o.NCol < 2 || o.NRow < 2 {
		return fmt.Errorf("dssearch: grid must be at least 2x2, got %dx%d", o.NCol, o.NRow)
	}
	if o.NCol > maxGridDim || o.NRow > maxGridDim {
		return fmt.Errorf("dssearch: grid must be at most %dx%d, got %dx%d", maxGridDim, maxGridDim, o.NCol, o.NRow)
	}
	return nil
}

// Stats reports the work performed by one search.
type Stats struct {
	Discretizations int // Discretize invocations (spaces processed)
	SATFills        int // always 0: the summed-area-table fill is gone; bench/ still reads the field
	Splits          int // Split invocations
	Bisections      int // forced bisections (progress guard)
	CleanCells      int // clean cells evaluated
	CleanEvals      int // clean cells finalized anew; the rest repeated their predecessor's totals
	DirtyCells      int // dirty cells bounded
	PrunedCells     int // dirty cells pruned by Equation 1
	MiniSweeps      int // safety-net sweeps run
	MiniSweepRects  int // rectangles handed to safety-net sweeps
	SweepBaseRects  int // rectangles containing a swept space, folded into the sweep's base vector instead
	FlatStrips      int // mini-sweep strips resolved by the flat prefix scan
	FenwickStrips   int // mini-sweep strips resolved by Fenwick tree walks
	RefinedCells    int // dirty cells tightened by subset enumeration
	RefinePruned    int // dirty cells pruned only after refinement
	CenterProbes    int // dirty-cell centers evaluated as candidates
	HeapPushes      int
	MaxHeapSize     int
	Steals          int // superstep items drained from another worker's deque
}

// Add folds another stats record into s (worker merge; the rounds of a
// top-k).
func (s *Stats) Add(o Stats) {
	s.Discretizations += o.Discretizations
	s.Splits += o.Splits
	s.Bisections += o.Bisections
	s.CleanCells += o.CleanCells
	s.CleanEvals += o.CleanEvals
	s.DirtyCells += o.DirtyCells
	s.PrunedCells += o.PrunedCells
	s.MiniSweeps += o.MiniSweeps
	s.MiniSweepRects += o.MiniSweepRects
	s.SweepBaseRects += o.SweepBaseRects
	s.FlatStrips += o.FlatStrips
	s.FenwickStrips += o.FenwickStrips
	s.RefinedCells += o.RefinedCells
	s.RefinePruned += o.RefinePruned
	s.CenterProbes += o.CenterProbes
	s.HeapPushes += o.HeapPushes
	s.Steals += o.Steals
	if o.MaxHeapSize > s.MaxHeapSize {
		s.MaxHeapSize = o.MaxHeapSize
	}
}

// Searcher runs DS-Search over a fixed set of rectangle objects and a
// query. Construct with NewSearcher; one Searcher is good for one query
// (but may solve many sub-spaces, as GI-DS does). A Searcher must not be
// used from multiple goroutines — concurrency happens inside each solve
// through the kernel worker pool.
type Searcher struct {
	rects []asp.RectObject // master array; sorted by (MinX, MinY) for integer-exact composites
	space geom.Rect        // the master's MBR
	query asp.Query
	opt   Options
	acc   geom.Accuracy
	isInt []bool  // integer representation dims (fD counts)
	tab   *tables // per-query aggregation layer (sat.go)
	Stats Stats

	best    asp.Result
	err     error // first cancellation error; later solves become no-ops
	workers []*worker

	// Batch-built per-worker scratch (ensureScratch): every worker's
	// discretization grids, sweep solvers and result buffers come from a
	// handful of shared slab allocations, so the allocation count stays
	// flat in the worker count.
	scratchOnce sync.Once
	grids       []gridBuffers
	sweepPool   []sweep.Solver

	// sharedIds is the spill arena for recycled id slices: the kernel's
	// merge barrier releases pruned children here, and workers fall back
	// to it when their own arena has no fitting slice. The mutex sits on
	// the miss path only — steady-state gets and puts stay within one
	// worker's private arena (DESIGN.md §4).
	sharedMu  sync.Mutex
	sharedIds [][]int32
}

// NewSearcher validates inputs and builds the aggregation layer over an
// arbitrary ASP instance. The rects slice is only read; if the master
// order needs resorting (integer-exact composites), a copy is sorted
// instead. A search for an a×b region over a dataset goes through
// NewRegionSearcher, which is also the only way to bind a pyramid.
func NewSearcher(rects []asp.RectObject, q asp.Query, opt Options) (*Searcher, error) {
	opt, err := opt.checked(q)
	if err != nil {
		return nil, err
	}
	tab := opt.Slabs.get()
	return newSearcher(tab, buildTables(tab, rects, q.F, false), q, opt, nil), nil
}

// NewRegionSearcher is the searcher of an ASRS request: the a×b
// top-right-corner reduction of ds (Definition 5: the answer point is the
// region's bottom-left corner) under the cheapest aggregation layer the
// options allow. A pyramid built for (ds, q.F) is bound: the master is
// materialized in pyramid order straight from the objects into the slab's
// retained buffer — one pass, no reduction, no permuting copy — and the
// shape's O(n)-derived facts come from the pyramid's memo (Pyramid.shape).
// Else, or when the shape's anchors collapse, the dataset is reduced and
// the layer built per query. Answers are bit-identical on both paths.
func NewRegionSearcher(ds *attr.Dataset, a, b float64, q asp.Query, opt Options) (*Searcher, error) {
	if !(a > 0) || !(b > 0) {
		return nil, fmt.Errorf("dssearch: region extent must be positive, got %g x %g", a, b)
	}
	opt, err := opt.checked(q)
	if err != nil {
		return nil, err
	}
	tab := opt.Slabs.get()
	var master []asp.RectObject
	var facts shapeFacts
	if p := opt.Pyramid; p.Matches(ds, q.F) {
		if cap(tab.masterBuf) < p.n {
			tab.masterBuf = make([]asp.RectObject, p.n)
		}
		if cap(tab.minXsBuf) < p.n {
			tab.minXsBuf = make([]float64, p.n)
		}
		tab.minXsBuf = tab.minXsBuf[:p.n]
		if facts = p.shape(a, b, tab.masterBuf[:p.n], tab.minXsBuf); facts.ok {
			master = tab.masterBuf[:p.n]
			p.bindCore(tab)
			tab.minXs = tab.minXsBuf
		}
	}
	if !facts.ok {
		rects, err := asp.Reduce(ds, a, b, asp.AnchorTR)
		if err != nil {
			return nil, err
		}
		return newSearcher(tab, buildTables(tab, rects, q.F, true), q, opt, nil), nil
	}
	tab.wmin, tab.wmax, tab.hmin, tab.hmax = facts.wmin, facts.wmax, facts.hmin, facts.hmax
	return newSearcher(tab, master, q, opt, &facts), nil
}

// checked resolves the defaults and validates the options and the query.
func (o Options) checked(q asp.Query) (Options, error) {
	o = o.withDefaults()
	if err := o.validate(); err != nil {
		return o, err
	}
	return o, q.Validate()
}

// newSearcher assembles a searcher over a built (facts == nil) or bound
// aggregation layer; a bound shape's accuracy and space come from its
// facts instead of a walk over the master.
func newSearcher(tab *tables, master []asp.RectObject, q asp.Query, opt Options, facts *shapeFacts) *Searcher {
	acc := opt.Accuracy
	if acc.DX <= 0 || acc.DY <= 0 {
		var computed geom.Accuracy
		if facts != nil {
			computed = facts.acc
		} else {
			computed = tab.accuracy(master)
		}
		if acc.DX <= 0 {
			acc.DX = computed.DX
		}
		if acc.DY <= 0 {
			acc.DY = computed.DY
		}
	}
	s := &Searcher{
		rects: master,
		query: q,
		opt:   opt,
		acc:   acc,
		isInt: q.F.IntegerDims(),
		tab:   tab,
	}
	if facts != nil {
		s.space = facts.space
	} else {
		s.space = asp.Space(master)
	}
	// Recycled id slices from a previous query using the same slab cache.
	s.sharedIds, tab.idFree = tab.idFree, nil
	nw := kernel.Workers(opt.Workers)
	ws := make([]worker, nw)
	s.workers = make([]*worker, nw)
	for i := range ws {
		ws[i].s = s
		s.workers[i] = &ws[i]
	}
	return s
}

// ensureScratch lazily batch-builds the per-worker scratch at the first
// processed space: all workers' discretization grids (one slab), sweep
// solvers (sweep.NewPool), incumbent/dirty/mini-sweep buffers (one slab
// each). The slabs are *retained on the tables value* and recycled
// through the SlabCache, so batches of queries on the same composite
// reuse every worker's scratch query after query instead of
// reallocating it (the batch-bench alloc assertion pins this). Safe
// under concurrent workers via the sync.Once.
func (s *Searcher) ensureScratch() {
	s.scratchOnce.Do(func() {
		nw := len(s.workers)
		f := s.query.F
		t := s.tab
		ncol, nrow := s.opt.NCol, s.opt.NRow
		if t.grids == nil || t.gridNW < nw || t.gridNCol != ncol || t.gridNRow != nrow ||
			t.gridEff != t.eff || t.gridF != f {
			t.grids = newGridBuffersBatch(nw, ncol, nrow, f, t.eff)
			t.gridNW, t.gridNCol, t.gridNRow, t.gridEff, t.gridF = nw, ncol, nrow, t.eff, f
		}
		s.grids = t.grids
		incrCap := 0
		if t.allExact {
			incrCap = 2048 // pre-size the Fenwick sweep scratch it will use
		}
		if t.sweepPool != nil && t.sweepN >= nw && t.sweepF == f && t.sweepCap == incrCap {
			// Recycled solvers: rebind the query (same composite, new
			// target/weights), keep all scratch.
			for i := 0; i < nw; i++ {
				t.sweepPool[i].SetQuery(s.query)
			}
			s.sweepPool = t.sweepPool
		} else if pool, err := sweep.NewPool(nw, s.query, incrCap); err == nil {
			t.sweepPool, t.sweepN, t.sweepF, t.sweepCap = pool, nw, f, incrCap
			s.sweepPool = pool
		}
		dims := f.Dims()
		cells := ncol * nrow
		const swCap = 1024
		// Per worker: the incumbent's representation, then the mini-sweep
		// base vector in eff space and its logical fold.
		perF := dims + t.eff + t.chans
		if len(t.scratchF) < nw*perF || len(t.scratchCells) < nw*cells ||
			len(t.scratchRects) < nw*swCap {
			t.scratchF = make([]float64, nw*perF)
			t.scratchCells = make([]cellInfo, nw*cells)
			t.scratchRects = make([]asp.RectObject, nw*swCap)
		}
		reps := t.scratchF
		dirt := t.scratchCells
		swBack := t.scratchRects
		// Prewarm each worker's private arena with two small id slices
		// carved from one slab, so the first spaces a worker touches hit
		// the arena instead of allocating. Recycled searchers skip this:
		// their arenas are seeded from the slab cache's recycled id
		// slices instead (which may alias an earlier query's warm slab —
		// carving it again would hand the same memory out twice).
		var warm []int32
		if len(s.sharedIds) == 0 {
			s.sharedIds = make([][]int32, 0, 64)
			warm = make([]int32, nw*2*workerArenaMaxCap)
		}
		for i, w := range s.workers {
			c := workerArenaMaxCap
			if warm != nil {
				w.arena = append(w.arena,
					warm[(2*i)*c:(2*i)*c:(2*i+1)*c],
					warm[(2*i+1)*c:(2*i+1)*c:(2*i+2)*c])
			}
			w.grid = &s.grids[i]
			if s.sweepPool != nil {
				w.sw = &s.sweepPool[i]
				w.sw.SetIncremental(t.allExact)
				if t.allExact {
					w.sw.SetFixedPoint(t.chScale, t.chInv)
				} else {
					w.sw.SetFixedPoint(nil, nil)
				}
				w.sw.SetStripCost(stripCostModel())
			}
			w.rep = reps[i*perF : i*perF : i*perF+dims]
			w.swBase = reps[i*perF+dims : (i+1)*perF]
			w.dirty = dirt[i*cells : i*cells : (i+1)*cells]
			w.swSub = swBack[i*swCap : i*swCap : (i+1)*swCap]
		}
	})
}

// Release hands the searcher's slab memory back to Options.Slabs for
// reuse by later queries. The searcher must not be used afterwards.
// A no-op when no slab cache was configured.
//
// A search that died in a kernel panic does NOT recycle: the panic may
// have interrupted a worker mid-mutation (a sweep solver half way
// through an incremental update, a grid buffer partially filled), and
// per-worker scratch is rebound — not rebuilt — on reuse. Dropping the
// slabs costs one rebuild on the composite's next query; recycling
// poisoned scratch could silently perturb it. The shared caches the
// tables merely alias (the engine pyramid) are read-only during search
// and stay valid.
func (s *Searcher) Release() {
	if s.tab == nil || s.opt.Slabs == nil {
		return
	}
	var pe *kernel.PanicError
	if errors.As(s.err, &pe) {
		s.tab = nil
		return
	}
	t := s.tab
	for _, w := range s.workers {
		t.idFree = append(t.idFree, w.arena...)
		w.arena = nil
	}
	t.idFree = append(t.idFree, s.sharedIds...)
	s.sharedIds = nil
	if len(t.idFree) > 64 {
		t.idFree = t.idFree[:64]
	}
	s.opt.Slabs.put(t)
	s.tab = nil
}

// worker is the per-goroutine state of one kernel worker: discretization
// scratch, a rebindable mini-sweep solver, an id-slice arena, the local
// incumbent for the space being processed, and private work counters
// merged after each run.
type worker struct {
	s      *Searcher
	grid   *gridBuffers
	sw     *sweep.Solver
	swSub  []asp.RectObject // mini-sweep rect scratch (materialized from ids)
	swBase []float64        // mini-sweep base vector scratch: eff space, then its logical fold
	dirty  []cellInfo       // discretize output scratch
	one    [1]cellInfo      // single-cell scratch for degenerate sweeps
	cur    asp.Result       // local incumbent; Rep aliases repBuf
	rep    []float64        // owned backing store for cur.Rep
	arena  [][]int32        // recycled id slices, touched only by this worker
	stats  Stats
}

// getIds returns a recycled id slice with capacity >= n (length 0),
// preferring the worker's own arena, then the searcher's shared spill
// list, then a fresh allocation.
func (w *worker) getIds(n int) []int32 {
	a := w.arena
	for i := len(a) - 1; i >= 0; i-- {
		if cap(a[i]) >= n {
			out := a[i][:0]
			a[i] = a[len(a)-1]
			w.arena = a[:len(a)-1]
			return out
		}
	}
	if out := w.s.sharedGetIds(n); out != nil {
		return out
	}
	return make([]int32, 0, n)
}

// Arena routing: each worker's private (lock-free) arena holds a few
// small slices — the common churn of deep, narrow spaces — while large
// slices and surplus recirculate through the shared spill list so they
// do not strand in one worker's arena while another allocates fresh.
// That stranding is what would make allocs/op grow with the worker
// count.
const (
	workerArenaCap    = 2
	workerArenaMaxCap = 512 // slice capacity above which puts go shared
)

// putIds recycles an id slice into the worker's own arena, spilling
// surplus and large slices to the shared list.
func (w *worker) putIds(ids []int32) {
	if cap(ids) == 0 {
		return
	}
	if cap(ids) > workerArenaMaxCap || len(w.arena) >= workerArenaCap {
		w.s.sharedPutIds(ids)
		return
	}
	w.arena = append(w.arena, ids)
}

// sharedGetIds pops a fitting slice from the shared spill list,
// preferring the smallest sufficient capacity so large slices stay
// available for large requests. Workers may call it concurrently; the
// list is short and the mutex sits on the miss path only.
func (s *Searcher) sharedGetIds(n int) []int32 {
	s.sharedMu.Lock()
	defer s.sharedMu.Unlock()
	a := s.sharedIds
	best := -1
	for i := len(a) - 1; i >= 0; i-- {
		if c := cap(a[i]); c >= n && (best < 0 || c < cap(a[best])) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	out := a[best][:0]
	a[best] = a[len(a)-1]
	s.sharedIds = a[:len(a)-1]
	return out
}

// sharedPutIds pushes a slice onto the shared spill list. It is called
// from the kernel's merge barrier and heap-drain AND concurrently by
// workers mid-round through the putIds spill path — the mutex is
// load-bearing, not defensive.
func (s *Searcher) sharedPutIds(ids []int32) {
	if cap(ids) == 0 {
		return
	}
	s.sharedMu.Lock()
	s.sharedIds = append(s.sharedIds, ids)
	s.sharedMu.Unlock()
}

// threshold is the pruning cutoff: d_opt for the exact algorithm,
// d_opt/(1+δ) for the approximate variant (§6), evaluated against the
// worker's local incumbent.
func (w *worker) threshold() float64 {
	if w.s.opt.Delta > 0 {
		return w.cur.Dist / (1 + w.s.opt.Delta)
	}
	return w.cur.Dist
}

// beginItem resets the worker's incumbent to the superstep snapshot. The
// representation is copied into worker-owned storage so improvements
// never write through to the shared bound's buffer.
func (w *worker) beginItem(incumbent asp.Result) {
	w.rep = append(w.rep[:0], incumbent.Rep...)
	w.cur = asp.Result{Point: incumbent.Point, Dist: incumbent.Dist, Rep: w.rep}
}

// improve installs a better local incumbent under the kernel's canonical
// order, copying rep into worker-owned storage.
func (w *worker) improve(dist float64, p geom.Point, rep []float64) {
	if !kernel.Better(asp.Result{Point: p, Dist: dist}, w.cur) {
		return
	}
	w.rep = append(w.rep[:0], rep...)
	w.cur = asp.Result{Point: p, Dist: dist, Rep: w.rep}
}

// Solve runs DS-Search over the full plane: the space of all rectangle
// objects plus the empty-cover candidate outside it.
func (s *Searcher) Solve() asp.Result {
	s.best = s.emptyResult(s.space)
	if len(s.rects) > 0 {
		s.SolveWithin(s.space, 0)
	}
	s.best.Rep = s.PointRepresentation(s.best.Point)
	s.best.Dist = s.query.Distance(s.best.Rep)
	return s.best
}

// emptyResult evaluates the empty covering set outside space.
func (s *Searcher) emptyResult(space geom.Rect) asp.Result {
	p := asp.EmptyCandidate(space)
	rep := make([]float64, s.query.F.Dims())
	s.query.F.FinalizeExact(make([]float64, s.query.F.Channels()), rep)
	return asp.Result{Point: p, Dist: s.query.Distance(rep), Rep: rep}
}

// SolveWithin refines the current best answer by searching the given
// space, seeded with the known lower bound seedLB (Algorithm 1, also the
// inner call of GI-DS Algorithm 2, line 7). The caller must have
// initialized s.best (Solve does; gridindex seeds it with its own running
// optimum).
func (s *Searcher) SolveWithin(space geom.Rect, seedLB float64) {
	ids := s.AppendWindowIDs(space, s.workers[0].getIds(len(s.rects)))
	s.SolveWithinIDs(space, seedLB, ids)
	s.workers[0].putIds(ids)
}

// AppendWindowIDs appends the master ids of every rectangle whose open
// interior intersects the closed space (only those can cover a candidate
// point in the space) and returns dst. On sorted masters the candidates
// come from a binary-searched window rather than a full scan; when an
// anchor-bin level is available (bound pyramid, or lazily built) and the
// window is much larger than the space's 2D anchor box, the ids are
// collected from the level's bins instead — certain bins bulk-append,
// boundary bins test exactly, and a final sort restores the ascending
// contract, so the result slice is identical either way.
func (s *Searcher) AppendWindowIDs(space geom.Rect, dst []int32) []int32 {
	master := s.rects
	t := s.tab
	lo, hi := 0, len(master)
	if t.sorted {
		lo, hi = t.window(space.MinX, space.MaxX)
		if t.satBuilt.Load() {
			if out, ok := s.appendBinIDs(space, dst, hi-lo); ok {
				return out
			}
		}
	}
	for i := lo; i < hi; i++ {
		r := &master[i].Rect
		if r.MinX < space.MaxX && space.MinX < r.MaxX &&
			r.MinY < space.MaxY && space.MinY < r.MaxY {
			dst = append(dst, int32(i))
		}
	}
	return dst
}

// appendBinIDs is the bin-backed id collection of AppendWindowIDs: it
// walks the space's anchor box on the best level — the 2D region that
// can hold anchors of intersecting rectangles — instead of the 1D MinX
// window, whose x-range spans the full y extent. ok=false means the
// window scan is expected to be no slower (small windows, or boxes
// covering most of the window).
func (s *Searcher) appendBinIDs(space geom.Rect, dst []int32, window int) ([]int32, bool) {
	t := s.tab
	master := s.rects
	l := t.pickLevel(master, space)
	i0 := l.xBinLE(master, space.MinX-t.wmax, true)
	i1 := l.xBinGT(master, space.MaxX, true)
	j0 := l.yBinLE(master, space.MinY-t.hmax, true)
	j1 := l.yBinGT(master, space.MaxY, true)
	if i0 >= i1 || j0 >= j1 {
		return dst, true // no anchor can intersect: empty result
	}
	// Estimated work: anchors in the box (count plane) plus bin visits,
	// versus the 1D window scan.
	box := l.countRegion(i0, i1, j0, j1)
	bins := (i1 - i0) * (j1 - j0)
	if window < 2*(box+bins) {
		return dst, false
	}
	// Certainly-intersecting bins (bulk append, CSR runs are contiguous
	// per row) versus boundary bins (exact test).
	ci0 := l.xBinGT(master, space.MinX-t.wmin, false)
	ci1 := l.xBinLE(master, space.MaxX, true)
	cj0 := l.yBinGT(master, space.MinY-t.hmin, false)
	cj1 := l.yBinLE(master, space.MaxY, true)
	start := len(dst)
	for bj := j0; bj < j1; bj++ {
		row := bj * l.gx
		inJ := bj >= cj0 && bj < cj1
		for bi := i0; bi < i1; bi++ {
			if inJ && bi >= ci0 && bi < ci1 {
				if ci0 < ci1 {
					dst = append(dst, l.binIds[l.binStart[row+ci0]:l.binStart[row+ci1]]...)
					bi = ci1 - 1
					continue
				}
			}
			for _, id := range l.binIds[l.binStart[row+bi]:l.binStart[row+bi+1]] {
				r := &master[id].Rect
				if r.MinX < space.MaxX && space.MinX < r.MaxX &&
					r.MinY < space.MaxY && space.MinY < r.MaxY {
					dst = append(dst, id)
				}
			}
		}
	}
	slices.Sort(dst[start:])
	return dst, true
}

// SolveWithinIDs is SolveWithin for callers that already know the master
// ids relevant to the space (GI-DS narrows them per index cell). ids
// must contain, in ascending order, every id whose rectangle interior
// intersects the space; the slice is only read and never retained past
// the call.
func (s *Searcher) SolveWithinIDs(space geom.Rect, seedLB float64, ids []int32) {
	if !space.IsValid() || len(s.rects) == 0 || s.err != nil {
		return
	}
	ctx := s.opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	bound := kernel.NewBound(s.opt.Delta, s.best)
	bound.SetExternal(s.opt.SharedCap)
	seed := kernel.Item{Space: space, Clip: space, LB: seedLB, Ids: ids}
	pushes, maxHeap, steals, err := kernel.RunCtx(ctx, len(s.workers), s.opt.BatchSize, []kernel.Item{seed}, bound,
		func(wid int, it kernel.Item, incumbent asp.Result, emit func(kernel.Item)) asp.Result {
			w := s.workers[wid]
			w.beginItem(incumbent)
			w.processSpace(it, emit)
			if it.Pooled {
				w.putIds(it.Ids)
			}
			res := w.cur
			if res.Point == incumbent.Point && res.Dist == incumbent.Dist {
				// Unchanged: hand back the incumbent itself, whose Rep is
				// bound-owned and immutable.
				return incumbent
			}
			// Improved: detach Rep from the worker's scratch, which the
			// next item of this superstep would otherwise overwrite before
			// the merge barrier reads it.
			res.Rep = append([]float64(nil), res.Rep...)
			return res
		},
		func(it kernel.Item) {
			if it.Pooled {
				s.sharedPutIds(it.Ids)
			}
		})
	s.best = bound.Best()
	s.err = err
	s.Stats.HeapPushes += pushes
	s.Stats.Steals += steals
	if maxHeap > s.Stats.MaxHeapSize {
		s.Stats.MaxHeapSize = maxHeap
	}
	for _, w := range s.workers {
		s.Stats.Add(w.stats)
		w.stats = Stats{}
	}
}

// sweepCutoff is the number of rectangles with an edge inside a space at
// or below which the space is solved directly by the exact sweep instead
// of further discretize/split rounds: an O(m²) sweep on m rectangles this
// small is cheaper than even one more grid pass and terminates the whole
// subtree. Rectangles that contain the space are not counted — the sweep
// does not pay for them (miniSweep) — and they are what a deep space
// mostly holds: an a×b rectangle is larger than the spaces the search
// ends in, so shrinking a space sheds edges, not overlapping rectangles.
const sweepCutoff = 160

// sweepable is the terminal rule: at most sweepCutoff of the space's
// rectangles have an edge inside it. A rectangle has none when the space
// lies in its open interior: it then covers every point of the closed
// space, and no edge of it can delimit a strip or an interval of a sweep
// over the space. One that shares an edge coordinate with the space
// counts as edged.
func (w *worker) sweepable(space geom.Rect, ids []int32) bool {
	master := w.s.rects
	edged := 0
	for _, id := range ids {
		if !master[id].Rect.ContainsRectOpen(space) {
			if edged++; edged > sweepCutoff {
				return false
			}
		}
	}
	return true
}

// processSpace discretizes one space, prunes, and either stops (drop
// condition / nothing left), runs the safety net, or splits and emits the
// two sub-spaces.
func (w *worker) processSpace(it kernel.Item, emit func(kernel.Item)) {
	w.s.ensureScratch()
	if !w.s.opt.DisableSafetyNet && w.sweepable(it.Space, it.Ids) {
		w.one[0] = cellInfo{rect: it.Space}
		w.miniSweep(w.one[:], it.Ids)
		return
	}
	w.stats.Discretizations++
	dirty, drop := w.discretize(it.Space, it.Clip, it.Ids)
	if len(dirty) == 0 {
		return
	}
	if drop {
		if !w.s.opt.DisableSafetyNet {
			w.miniSweep(dirty, it.Ids)
		}
		return
	}
	if len(dirty) == 1 {
		// Nothing to partition: recurse into the single cell's extent.
		w.push(emit, dirty[0].rect, dirty[0].lb, it)
		return
	}
	g1, lb1, g2, lb2 := split(dirty)
	w.stats.Splits++
	w.push(emit, g1, lb1, it)
	w.push(emit, g2, lb2, it)
}

// childIds filters the parent's ids down to those intersecting space,
// into a recycled slice sized by the binary-searched window.
func (w *worker) childIds(parent []int32, space geom.Rect) []int32 {
	t := w.s.tab
	lo, hi := 0, len(parent)
	if t.sorted {
		x0 := space.MinX - t.wmax
		lo = sort.Search(len(parent), func(k int) bool { return t.minXs[parent[k]] > x0 })
		if h := sort.Search(len(parent), func(k int) bool { return t.minXs[parent[k]] >= space.MaxX }); h < hi {
			hi = h
		}
		if lo > hi {
			lo = hi
		}
	}
	out := w.getIds(hi - lo)
	master := w.s.rects
	for _, id := range parent[lo:hi] {
		r := &master[id].Rect
		if r.MinX < space.MaxX && space.MinX < r.MaxX &&
			r.MinY < space.MaxY && space.MinY < r.MaxY {
			out = append(out, id)
		}
	}
	return out
}

// push emits a child space, guarding against non-shrinking children
// (which would never satisfy the drop condition) by bisecting instead.
func (w *worker) push(emit func(kernel.Item), child geom.Rect, lb float64, parent kernel.Item) {
	if lb >= w.threshold() {
		return
	}
	// The child's clip: lower edges coincide with the child space (cell
	// edges never undershoot), upper edges take the ancestor minimum.
	clipOf := func(space geom.Rect) geom.Rect {
		cl := space
		if parent.Clip.MaxX < cl.MaxX {
			cl.MaxX = parent.Clip.MaxX
		}
		if parent.Clip.MaxY < cl.MaxY {
			cl.MaxY = parent.Clip.MaxY
		}
		return cl
	}
	const shrink = 0.999 // child must be meaningfully smaller in some axis
	if child.Width() > parent.Space.Width()*shrink && child.Height() > parent.Space.Height()*shrink {
		w.stats.Bisections++
		var left, right geom.Rect
		if child.Width() >= child.Height() {
			mid := (child.MinX + child.MaxX) / 2
			left = geom.Rect{MinX: child.MinX, MinY: child.MinY, MaxX: mid, MaxY: child.MaxY}
			right = geom.Rect{MinX: mid, MinY: child.MinY, MaxX: child.MaxX, MaxY: child.MaxY}
		} else {
			mid := (child.MinY + child.MaxY) / 2
			left = geom.Rect{MinX: child.MinX, MinY: child.MinY, MaxX: child.MaxX, MaxY: mid}
			right = geom.Rect{MinX: child.MinX, MinY: mid, MaxX: child.MaxX, MaxY: child.MaxY}
		}
		emit(kernel.Item{Space: left, Clip: clipOf(left), LB: lb, Ids: w.childIds(parent.Ids, left), Pooled: true})
		emit(kernel.Item{Space: right, Clip: clipOf(right), LB: lb, Ids: w.childIds(parent.Ids, right), Pooled: true})
		return
	}
	emit(kernel.Item{Space: child, Clip: clipOf(child), LB: lb, Ids: w.childIds(parent.Ids, child), Pooled: true})
}

// miniSweep runs the Base algorithm restricted to the MBR of the surviving
// dirty cells; see DESIGN.md §3 "Exactness safety net". The rectangles
// that contain the MBR cover every candidate the sweep enumerates and add
// the same vector to each: their table contributions are summed once, in
// id order like the grid fill's, into a base the solver starts from, and
// only the rectangles with an edge inside are swept. The worker's sweep
// solver is rebound in place, so steady-state sweeps reuse all of their
// scratch.
func (w *worker) miniSweep(dirty []cellInfo, ids []int32) {
	mbr := geom.EmptyRect()
	for _, c := range dirty {
		mbr = mbr.Union(c.rect)
	}
	master := w.s.rects
	tab := w.s.tab
	w.swSub = w.swSub[:0]
	base := w.swBase[:tab.eff]
	clear(base)
	covering := 0
	for _, id := range ids {
		r := &master[id].Rect
		if r.ContainsRectOpen(mbr) {
			for _, cb := range tab.rectContribs(id) {
				base[cb.Ch] += cb.V
			}
			covering++
		} else if r.MinX < mbr.MaxX && mbr.MinX < r.MaxX && r.MinY < mbr.MaxY && mbr.MinY < r.MaxY {
			w.swSub = append(w.swSub, master[id])
		}
	}
	base = tab.fold(w.swBase[tab.eff:], base)
	w.stats.MiniSweeps++
	w.stats.MiniSweepRects += len(w.swSub)
	w.stats.SweepBaseRects += covering
	if w.sw == nil {
		// Fallback when the batch pool could not be built; the pool path
		// assigns solvers in ensureScratch.
		sw, err := sweep.New(nil, w.s.query)
		if err != nil {
			return // query was validated at construction; unreachable
		}
		w.sw = sw
		w.sw.SetIncremental(tab.allExact)
		if tab.allExact {
			w.sw.SetFixedPoint(tab.chScale, tab.chInv)
		}
		w.sw.SetStripCost(stripCostModel())
	}
	w.sw.RebindWithBase(w.swSub, base)
	// The solver's counters accumulate across rebinds (pooled solvers
	// serve many sweeps); fold only this sweep's strip-evaluator deltas
	// into the worker stats.
	before := w.sw.Stats
	// The incumbent's distance caps candidate evaluation: improve()
	// discards anything scoring above it (ties included — the cap is
	// open at cur.Dist), so those candidates may abandon their distance
	// march early. The returned result can then be the +Inf sentinel,
	// which improve() rejects like any other loser.
	if r, ok := w.sw.SolveWithinCapped(mbr, w.cur.Dist); ok && r.Rep != nil {
		w.improve(r.Dist, r.Point, r.Rep)
	}
	w.stats.FlatStrips += w.sw.Stats.FlatStrips - before.FlatStrips
	w.stats.FenwickStrips += w.sw.Stats.FenwickStrips - before.FenwickStrips
	// The scratch is recycled across queries with the slabs, and the next
	// sweeps rewrite only as much of it as they are large. Object pointers
	// left in it would keep this query's dataset alive — under ingest a
	// whole past view per stale pointer.
	clear(w.swSub)
}

// PointRepresentation computes F(p) exactly over the master set,
// restricted to the binary-searched MinX window when the master is
// sorted. Bit-identical to asp.PointRepresentation: the covering
// rectangles are visited in the same master order, through the same
// accumulator (the window merely skips rectangles that cannot cover p).
func (s *Searcher) PointRepresentation(p geom.Point) []float64 {
	t := s.tab
	out := make([]float64, s.query.F.Dims())
	lo, hi := 0, len(s.rects)
	if t.sorted {
		lo, hi = t.windowLo(p.X-t.wmax), t.windowHi(p.X)
		if lo > hi {
			lo = hi
		}
	}
	acc := agg.NewAccumulator(s.query.F)
	for i := lo; i < hi; i++ {
		if s.rects[i].Rect.ContainsOpen(p) {
			acc.Add(s.rects[i].Obj)
		}
	}
	acc.Representation(out)
	return out
}

// Best returns the current best result (valid during and after a solve;
// used by the grid-index driver to thread d_opt across cells).
func (s *Searcher) Best() asp.Result { return s.best }

// Err reports whether a solve was cut short by Options.Ctx
// (context.Canceled or context.DeadlineExceeded, nil otherwise). Once
// set, further Solve calls on this searcher are no-ops; the partial
// incumbent in Best() is NOT the search answer and front doors must
// surface the error instead of it.
func (s *Searcher) Err() error { return s.err }

// SeedBest installs an externally found incumbent (GI-DS threads its
// running optimum through successive DS-Search invocations).
func (s *Searcher) SeedBest(r asp.Result) { s.best = r }

// Rects returns the searcher's master rectangle array (read-only; the
// order may differ from the constructor argument when the incremental
// layer sorted it).
func (s *Searcher) Rects() []asp.RectObject { return s.rects }

// Space returns the search space of the whole instance: the minimum
// bounding rectangle of the master rectangles (asp.Space).
func (s *Searcher) Space() geom.Rect { return s.space }

// ReduceForSearch performs the ASP reduction of a search (Definition 5,
// top-right-corner anchor). No search calls it (NewRegionSearcher reduces
// only when it has nothing to bind); bench/trace.go samples a workload's
// rectangles through it, which is also why the composite and options
// arguments, now ignored, stay (ROADMAP, signatures to release).
func ReduceForSearch(ds *attr.Dataset, a, b float64, _ *agg.Composite, _ Options) ([]asp.RectObject, error) {
	return asp.Reduce(ds, a, b, asp.AnchorTR)
}
