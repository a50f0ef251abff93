// Package dssearch implements the paper's primary contribution: the
// Discretize-and-Split search (DS-Search) algorithm for the ASP problem
// (paper §4), its (1+δ)-approximate variant (§6), and the ASRS front door
// (Request, request.go) that reduces a region request to ASP and maps each
// round's answer point back to a region (Theorem 1).
//
// DS-Search repeatedly discretizes a space into an n_row×n_col grid,
// evaluates clean cells exactly, lower-bounds dirty cells via Equation 1,
// prunes, and splits the surviving dirty cells into two MBR sub-spaces
// until each space either meets the terminal rule, which sweeps it exactly
// (sweepable), or runs out of unpruned dirty cells. Spaces are processed
// best-first from a min-heap keyed by lower bound.
//
// The best-first loop itself is internal/kernel's, run serially on the
// goroutine that asked for the search.
//
// A search reads one aggregation layer, a pyramid (sat.go, pyramid.go):
// the master — the dataset's anchors sorted by location, read as
// rectangles through the query's (a, b) — and flattened limb
// contributions.
// Every Discretize fills its grid the same way — one difference-array
// pass over the space's rectangles (grid.go). Rectangle subsets flow
// through the kernel heap as 4-byte id slices recycled through the
// searcher's free list, so the steady state allocates almost nothing per
// space.
package dssearch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"

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
	// checks it before each space and the front doors between sub-space
	// solves, so a cancelled or deadline-expired context stops the search
	// within one space of work and surfaces context.Canceled /
	// context.DeadlineExceeded from the front door.
	Ctx context.Context
	// NCol, NRow control the discretization grid: 30×30 by default, the
	// paper's tuning for whole-space searches. A GI-DS index cell's first
	// discretization takes a smaller grid sized to its rectangles, capped
	// at NCol×NRow (Searcher.SolveCell).
	NCol, NRow int
	// Delta is the approximation parameter δ of §6. Zero gives the exact
	// algorithm; δ>0 returns a region within (1+δ) of the optimum.
	Delta float64
	// Workers is inert: a search runs on the goroutine that asked for it
	// (DESIGN.md §4). The field stays until bench/, which sets it, can
	// change (ROADMAP, signatures to release).
	Workers int
	// Pyramid, when non-nil and built for exactly the request's dataset
	// and composite, is the aggregation layer the request's plan is
	// compiled against (Compile) and its searchers read: anchors, order,
	// contributions and limbs are shared, so a bind is O(1) (DESIGN.md
	// §6). A pyramid of another dataset or composite is ignored, and so is
	// a nil one: the plan then builds a one-shot pyramid over the
	// request's dataset. Answers are bit-identical either way.
	Pyramid *Pyramid
	// SharedCap, when non-nil, attaches a cross-search shared pruning
	// cap to every bound this search creates: each improvement publishes
	// the running best distance into it, and the threshold folds sibling
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
	MiniSweeps      int // terminal-rule sweeps run
	MiniSweepRects  int // rectangles handed to terminal-rule sweeps
	SweepBaseRects  int // rectangles containing a swept space, folded into the sweep's base vector instead
	FlatStrips      int // mini-sweep strips scored by the incremental sweep's flat pass
	FenwickStrips   int // always 0: the Fenwick strip evaluator is gone; bench/ still reads the field
	SweepScored     int // mini-sweep intervals folded and scored, every walk
	PrunedStrips    int // mini-sweep strips skipped unscored: their Lemma 5 bound could not beat the sweep's
	RefinedCells    int // always 0: subset-enumeration refinement is gone; bench/ still reads the field
	CenterProbes    int // dirty-cell centers evaluated as candidates
	HeapPushes      int
	MaxHeapSize     int
	Steals          int // always 0: a search has no workers to steal between; bench/ still reads the field
	SelfCheckMisses int // answers whose re-evaluated distance differed from the one the search ranked them by (Settle); always 0
}

// Add folds another stats record into s (the rounds of a top-k).
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
	s.SweepScored += o.SweepScored
	s.PrunedStrips += o.PrunedStrips
	s.CenterProbes += o.CenterProbes
	s.HeapPushes += o.HeapPushes
	s.MaxHeapSize = max(s.MaxHeapSize, o.MaxHeapSize)
	s.SelfCheckMisses += o.SelfCheckMisses
}

// Searcher runs DS-Search over the a×b reduction of a dataset and a
// query. Construct with NewRegionSearcher; one Searcher is good for one
// query (but may solve many sub-spaces, as GI-DS does). A Searcher runs
// on the goroutine that calls it and must not be shared between
// goroutines.
type Searcher struct {
	// The master: rectangle id is geom.RectFromTR(pts[id], a, b), the a×b
	// rectangle of the object at anchor pts[id] (Definition 5). The
	// anchors are in the (x, y, index) order, so neither MaxX = pts[id].X
	// nor MinX = pts[id].X − a decreases with id.
	pts   []geom.Point
	a, b  float64
	space geom.Rect // the reduction's space (reductionSpace)

	query asp.Query
	plan  *Plan // the request's query, compiled: the bound and score every evaluator reads
	opt   Options
	core  *core // the plan's pyramid's aggregation core (sat.go)
	slab  *slab // search scratch, recycled through the free list (plan.go)
	Stats Stats

	best asp.Result
	err  error // first cancellation error; later solves become no-ops
	cell bool  // the kernel run under way is SolveCell's: its seed space takes a sized grid

	// Search scratch, built at the first processed space (ensureScratch)
	// from what the slab retains across queries.
	grid    *gridBuffers
	sw      *sweep.Solver
	swRects []geom.Rect // mini-sweep scratch: the swept rectangles (materialized from ids)
	swIds   []int32     // and their master ids, their rows of the core
	swBase  []float64   // mini-sweep base vector scratch, in limbs
	dirty   []cellInfo  // discretize output scratch
	cur     asp.Result  // incumbent of the space being processed; Rep aliases rep
	rep     []float64   // owned backing store for cur.Rep
	ids     [][]int32   // free list of recycled id slices
}

// MaxExtent bounds an answer's width and height: an extent must be below
// it. With locations below 2^1022 (attr.Schema.Check), every x − a, the
// empty covering set's point and its region stay finite (DESIGN.md §5).
const MaxExtent = 0x1p1020

// CheckExtent is the error of an a×b answer extent that is not positive
// and below MaxExtent; nil for one that is. Every door that takes an
// answer size calls it.
func CheckExtent(a, b float64) error {
	if !(a > 0 && a < MaxExtent) || !(b > 0 && b < MaxExtent) {
		return fmt.Errorf("dssearch: region extent must be positive and below %g, got %g x %g", MaxExtent, a, b)
	}
	return nil
}

// NewRegionSearcher is the searcher of an ASRS request: the a×b
// top-right-corner reduction (Definition 5: the answer point is the
// region's bottom-left corner) of the dataset the plan was compiled over.
// It reads the plan's pyramid — its anchors, order and core are shared
// and the space is read off the geometry's bounds (shape.go), so nothing
// is built per searcher — and the plan's bound and score. The plan must
// outlive the searcher.
func NewRegionSearcher(pl *Plan, a, b float64, opt Options) (*Searcher, error) {
	if err := CheckExtent(a, b); err != nil {
		return nil, err
	}
	return newSearcher(pl, a, b, opt)
}

// newSearcher is NewRegionSearcher for any finite a, b ≥ 0: the tests
// also search zero-extent rectangles. It takes the released slab that
// fits the search's grid, if there is one.
func newSearcher(pl *Plan, a, b float64, opt Options) (*Searcher, error) {
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		return nil, err
	}
	p := pl.pyr
	s := &Searcher{pts: p.geo.pts, a: a, b: b, space: reductionSpace(p.geo.bounds, a, b),
		query: pl.q, plan: pl, opt: opt, core: p.core}
	s.slab = takeSlab(s.gridShape())
	s.ids, s.slab.idFree = s.slab.idFree, nil
	return s, nil
}

// gridShape is the shape of the searcher's NCol×NRow grid.
func (s *Searcher) gridShape() gridShape {
	f := s.query.F
	return gridShape{ncol: s.opt.NCol, nrow: s.opt.NRow, limbs: s.core.limbs.Eff(),
		chans: f.Channels(), mmSlots: f.MinMaxSlots(), dims: f.Dims()}
}

// rect returns master rectangle id.
func (s *Searcher) rect(id int32) geom.Rect { return geom.RectFromTR(s.pts[id], s.a, s.b) }

// windowLo returns the first master id whose MaxX (its anchor's x)
// exceeds x.
func (s *Searcher) windowLo(x float64) int {
	return sort.Search(len(s.pts), func(i int) bool { return s.pts[i].X > x })
}

// windowHi returns the first master id whose MinX is >= x.
func (s *Searcher) windowHi(x float64) int {
	return sort.Search(len(s.pts), func(i int) bool { return s.pts[i].X-s.a >= x })
}

// window returns the [lo, hi) master id range of exactly the rectangles
// whose open x-range meets the open x-range (x0, x1): MaxX > x0 and
// MinX < x1. Both tests are monotone in master order.
func (s *Searcher) window(x0, x1 float64) (int, int) {
	lo, hi := s.windowLo(x0), s.windowHi(x1)
	return min(lo, hi), hi
}

// idWindow is window over an ascending id list (a space's ids): the run
// of ids whose rectangle's open x-range meets (x0, x1).
func (s *Searcher) idWindow(ids []int32, x0, x1 float64) []int32 {
	lo := sort.Search(len(ids), func(k int) bool { return s.pts[ids[k]].X > x0 })
	hi := sort.Search(len(ids), func(k int) bool { return s.pts[ids[k]].X-s.a >= x1 })
	return ids[min(lo, hi):hi]
}

// ensureScratch builds the search scratch at the first processed space:
// the discretization grid, the sweep solver and the incumbent, dirty-cell
// and mini-sweep buffers. They are *retained on the slab*, which the free
// list hands from search to search, so steady-state queries reuse them
// instead of reallocating them (the batch-bench alloc assertion pins
// this).
func (s *Searcher) ensureScratch() {
	if s.grid != nil {
		return
	}
	t, limbs := s.slab, &s.core.limbs
	if shape := s.gridShape(); t.grid == nil || t.shape != shape {
		t.grid = newGridBuffers(shape.ncol, shape.nrow, s.query.F, shape.limbs)
		t.shape = shape
	}
	s.grid = t.grid
	// The solver holds no query: it is bound to the core's limbs and rows
	// and to the plan, and keeps all its scratch.
	if t.sw == nil {
		t.sw = sweep.NewSized(sweepReach)
	}
	s.sw = t.sw
	s.sw.Bind(limbs, s.core.rows(), &s.plan.c)
	// One float slab: the incumbent's representation, then the mini-sweep
	// base vector.
	eff, dims, cells := limbs.Eff(), s.query.F.Dims(), s.opt.NCol*s.opt.NRow
	const swCap = 1024
	if nf := dims + eff; len(t.scratchF) < nf || len(t.scratchCells) < cells || len(t.scratchRects) < swCap {
		t.scratchF = make([]float64, nf)
		t.scratchCells = make([]cellInfo, cells)
		t.scratchRects = make([]geom.Rect, swCap)
		t.scratchIds = make([]int32, swCap)
	}
	s.rep = t.scratchF[:0:dims]
	s.swBase = t.scratchF[dims : dims+eff]
	s.dirty = t.scratchCells[:0:cells]
	s.swRects, s.swIds = t.scratchRects[:0:swCap], t.scratchIds[:0:swCap]
}

// Release hands the searcher's slab back to the free list for later
// searches. The searcher must not be used afterwards; its plan is the
// caller's, and outlives it.
//
// A search that died in a kernel panic does NOT recycle: the panic may
// have interrupted it mid-mutation (a sweep solver half way through an
// incremental update, a grid buffer partially filled), and the scratch
// is rebound — not rebuilt — on reuse. Dropping the slab costs one
// rebuild on a later search; recycling poisoned scratch could silently
// perturb it. The pyramid the search read is read-only during search and
// stays valid.
func (s *Searcher) Release() {
	t := s.slab
	if t == nil {
		return
	}
	s.slab = nil
	if s.err != nil { // errors.As's target escapes: ask only on an error
		if pe := (*kernel.PanicError)(nil); errors.As(s.err, &pe) {
			return
		}
	}
	t.idFree = s.ids[:min(len(s.ids), 64)]
	s.ids = nil
	if t.sw != nil {
		// A released slab holds nothing of the pyramid or the plan.
		t.sw.Bind(&noLimbs, sweep.Rows{}, nil)
	}
	scratch.Lock()
	defer scratch.Unlock()
	scratch.slabs = append(scratch.slabs, t)
}

// getIds returns a recycled id slice with capacity >= n (length 0) — the
// smallest that fits, so large slices stay for large requests — or a
// fresh one.
func (s *Searcher) getIds(n int) []int32 {
	best := -1
	for i := len(s.ids) - 1; i >= 0; i-- {
		if c := cap(s.ids[i]); c >= n && (best < 0 || c < cap(s.ids[best])) {
			best = i
		}
	}
	if best < 0 {
		return make([]int32, 0, n)
	}
	out := s.ids[best][:0]
	last := len(s.ids) - 1
	s.ids[best] = s.ids[last]
	s.ids = s.ids[:last]
	return out
}

// putIds hands an id slice back to the free list.
func (s *Searcher) putIds(ids []int32) {
	if cap(ids) > 0 {
		s.ids = append(s.ids, ids)
	}
}

// threshold is the pruning cutoff: d_opt for the exact algorithm,
// d_opt/(1+δ) for the approximate variant (§6), evaluated against the
// incumbent of the space being processed.
func (s *Searcher) threshold() float64 {
	if s.opt.Delta > 0 {
		return s.cur.Dist / (1 + s.opt.Delta)
	}
	return s.cur.Dist
}

// beginItem starts a space from the bound's incumbent, copying its
// representation into the searcher's own storage so that improvements
// never write through to the bound's.
func (s *Searcher) beginItem(incumbent asp.Result) {
	s.rep = append(s.rep[:0], incumbent.Rep...)
	s.cur = asp.Result{Point: incumbent.Point, Dist: incumbent.Dist, Rep: s.rep}
}

// improve installs a better incumbent under the kernel's canonical
// order, copying rep into the searcher's own storage.
func (s *Searcher) improve(dist float64, p geom.Point, rep []float64) {
	if !kernel.Better(asp.Result{Point: p, Dist: dist}, s.cur) {
		return
	}
	s.rep = append(s.rep[:0], rep...)
	s.cur = asp.Result{Point: p, Dist: dist, Rep: s.rep}
}

// Solve runs DS-Search over the full plane: the space of all rectangle
// objects plus the empty-cover candidate outside it.
func (s *Searcher) Solve() asp.Result {
	s.best = s.emptyResult(s.space)
	if len(s.pts) > 0 {
		s.SolveWithin(s.space, 0)
	}
	s.best = s.Settle(s.best)
	return s.best
}

// Settle returns an answer with its representation evaluated afresh at
// its point, the form a front door hands out. The distance it carries is
// re-evaluated too, and compared first with the one the search ranked the
// answer by: the two are the same float by construction, and a mismatch —
// a search that took an answer for better than it is — is counted in
// Stats.SelfCheckMisses.
func (s *Searcher) Settle(r asp.Result) asp.Result {
	rep := s.PointRepresentation(r.Point)
	dist := s.query.Distance(rep)
	if math.Float64bits(dist) != math.Float64bits(r.Dist) {
		s.Stats.SelfCheckMisses++
	}
	r.Rep, r.Dist = rep, dist
	return r
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
	if !space.IsValid() || len(s.pts) == 0 || s.err != nil {
		return
	}
	ids := s.AppendWindowIDs(space, s.getIds(len(s.pts)))
	s.run(space, seedLB, ids)
	s.putIds(ids)
}

// AppendWindowIDs appends the master ids of every rectangle whose open
// interior intersects the closed space (only those can cover a candidate
// point in the space) and returns dst. The candidates come from the
// binary-searched x window (window) rather than a full scan.
func (s *Searcher) AppendWindowIDs(space geom.Rect, dst []int32) []int32 {
	lo, hi := s.window(space.MinX, space.MaxX)
	for i := lo; i < hi; i++ {
		if s.meets(int32(i), space) {
			dst = append(dst, int32(i))
		}
	}
	return dst
}

// AppendCellIDs appends to dst what AppendWindowIDs appends for the
// space, collected from runs of candidate ids instead of the whole MinX
// window: every id of the window whose rectangle meets the space must be
// in one of the runs — the id lists of the grid index cells the space's
// anchor box reaches (gridindex). The ids kept are marked in a bitmap of
// the window, one bit per id, and a word scan emits them ascending and
// each once: O(candidates + window/64), where sorting them would be
// O(ids log ids).
func (s *Searcher) AppendCellIDs(space geom.Rect, runs [][]int32, dst []int32) []int32 {
	lo, hi := s.window(space.MinX, space.MaxX)
	words := (hi - lo + 63) >> 6
	t := s.slab
	if cap(t.idBits) < words {
		t.idBits = make([]uint64, words)
	}
	marks := t.idBits[:words]
	clear(marks)
	for _, run := range runs {
		for _, id := range run {
			if k := int(id) - lo; uint(k) < uint(hi-lo) && s.meets(id, space) {
				marks[k>>6] |= 1 << (k & 63)
			}
		}
	}
	for w, word := range marks {
		for ; word != 0; word &= word - 1 {
			dst = append(dst, int32(lo+w<<6+bits.TrailingZeros64(word)))
		}
	}
	return dst
}

// meets reports whether rectangle id's open interior intersects the
// closed space.
func (s *Searcher) meets(id int32, space geom.Rect) bool {
	r := s.rect(id)
	return r.MinX < space.MaxX && space.MinX < r.MaxX &&
		r.MinY < space.MaxY && space.MinY < r.MaxY
}

// run is one kernel run from a seed space. ids must contain, in
// ascending order, every id whose rectangle interior intersects the
// space; the slice is only read and never retained past the call.
func (s *Searcher) run(space geom.Rect, seedLB float64, ids []int32) {
	bound := kernel.NewBound(s.opt.Delta, s.best)
	bound.SetExternal(s.opt.SharedCap)
	seed := kernel.Item{Space: space, Clip: space, LB: seedLB, Ids: ids}
	pushes, maxHeap, err := kernel.RunCtx(s.ctx(), []kernel.Item{seed}, bound,
		func(_ int, it kernel.Item, incumbent asp.Result, emit func(kernel.Item)) asp.Result {
			s.processSpace(it, incumbent, emit)
			if it.Pooled {
				s.putIds(it.Ids)
			}
			// cur.Rep is scratch the next space overwrites; the kernel's
			// Offer copies it before then.
			return s.cur
		},
		func(it kernel.Item) {
			if it.Pooled {
				s.putIds(it.Ids)
			}
		})
	s.best = bound.Best()
	s.err = err
	s.Stats.HeapPushes += pushes
	s.Stats.MaxHeapSize = max(s.Stats.MaxHeapSize, maxHeap)
}

// ctx is the search's context, Background when Options has none.
func (s *Searcher) ctx() context.Context {
	if s.opt.Ctx == nil {
		return context.Background()
	}
	return s.opt.Ctx
}

// SolveCell is SolveWithin for a space entered with an index bound —
// a GI-DS index cell or margin strip, or a piece of one. It asks the
// terminal rule of the space once. A space the rule takes is swept at
// once, with no kernel run to set up, the way the kernel would process
// it: the termination test first (Equation 1's threshold, a shared cap
// folded in as kernel.Bound does), then the context and the panic
// boundary (kernel.Step), and the sweep capped at the incumbent, whose
// improvement is published to the shared cap. Any other space is a
// kernel run whose first discretization takes a grid sized to its
// rectangles (cellGrid) instead of NCol×NRow; the spaces it splits into
// take NCol×NRow again. The incumbent (Best) ends where SolveWithin
// leaves it: a discretization is exact at any grid.
//
// A record cap at or above the incumbent makes the call a recording one:
// a space the rule takes is swept under that cap instead of the
// incumbent's, and SolveCell returns true with the least candidate that
// scores at or under it — the minimum over every answer point of the
// space whenever that minimum is at most the cap — or, when nothing in the
// space does, with a result of distance +Inf and no representation. A cap
// of +Inf records the exact minimum; one below the incumbent (−Inf) asks
// for no record. The termination test does not stop a recording sweep,
// but a space it would stop is not swept once the context is done: there
// is only the record to lose. SolveCell returns false for a space searched
// any other way or not at all, for a sweep cut short (Err), and for a call
// that records nothing. ids must contain, in ascending order, every id
// whose rectangle interior intersects the space (AppendWindowIDs,
// AppendCellIDs); the slice is only read and never retained past the call.
func (s *Searcher) SolveCell(space geom.Rect, seedLB float64, ids []int32, record float64) (asp.Result, bool) {
	if !space.IsValid() || len(s.pts) == 0 || s.err != nil {
		return asp.Result{}, false
	}
	if s.sweepable(space, ids) {
		return s.sweepCell(space, seedLB, ids, record)
	}
	s.cell = true
	s.run(space, seedLB, ids)
	s.cell = false
	return asp.Result{}, false
}

// sweepCell is SolveCell for a space the terminal rule takes.
func (s *Searcher) sweepCell(space geom.Rect, seedLB float64, ids []int32, record float64) (asp.Result, bool) {
	// The shared cap takes the incumbent and every improvement, as a
	// kernel run's bound publishes them (SetExternal, Offer).
	ext := s.opt.SharedCap
	if ext != nil {
		ext.Publish(s.best.Dist)
	}
	recording := record >= s.best.Dist
	if seedLB >= kernel.Threshold(s.best.Dist, s.opt.Delta, ext) &&
		(!recording || s.ctx().Err() != nil) {
		return asp.Result{}, false
	}
	capDist := max(s.best.Dist, record)
	var r asp.Result
	var ok bool
	if s.err = kernel.Step(s.ctx(), func() {
		s.ensureScratch()
		r, ok = s.sweepUnder(space, ids, capDist)
	}); s.err != nil || !ok {
		return asp.Result{}, false
	}
	// The sweep's representation is its own, fresh: the incumbent may
	// hold it.
	if r.Rep != nil && kernel.Better(r, s.best) {
		if s.best = r; ext != nil {
			ext.Publish(r.Dist)
		}
	}
	return r, recording
}

// The terminal rule's constants. sweepCutoff is the number of rectangles
// with an edge inside a space at or below which the space is solved
// directly by the exact sweep instead of further discretize/split rounds:
// an O(m²) sweep on m rectangles this small is cheaper than even one more
// grid pass and terminates the whole subtree. Rectangles that contain the
// space are not counted — the sweep does not pay for them (miniSweep) —
// and they are what a deep space mostly holds: an a×b rectangle is larger
// than the spaces the search ends in, so shrinking a space sheds edges,
// not overlapping rectangles.
//
// Edges that lie on one line are not shed by shrinking: a space that
// straddles a line hundreds of rectangles end on keeps them at any width
// (every generator clamps its clusters to the bounds), and the search
// would halve it down to widths of 1e-13. What a sweep pays for is
// distinct edge coordinates, so a space whose inner edges take at most
// sweepYLines distinct y values — at most sweepYLines+1 strips — is swept
// whatever its rectangle count, and one whose inner edges take at most
// sweepXLines distinct x values is swept when its edged rectangles fit
// the incremental sweep (sweepReach).
//
// sweepYLines is 15 so that the y clause takes every space the paper's
// drop condition (Definition 8) stopped: one in which two grid rows fit
// between the two closest distinct y edges of the corpus (the GPS
// accuracy DY of Definition 7). With at most DefaultNRow = 30 rows such a
// space is under 15·DY high, so its inner edges take at most 15 distinct
// y values, and it is swept, exactly, before it is gridded (DESIGN.md §3).
// Larger grids, which only benchmarks and tests set, may grid it longer.
const (
	sweepCutoff = 160
	sweepXLines = 4
	sweepYLines = 15
	sweepReach  = 2048
)

// sweepable is the terminal rule: at most sweepCutoff of the space's
// rectangles have an edge inside it, or their edges are degenerate
// (degenerate). A rectangle has none when the space lies in its open
// interior: it then covers every point of the closed space, and no edge
// of it can delimit a strip or an interval of a sweep over the space. One
// that shares an edge coordinate with the space counts as edged.
func (s *Searcher) sweepable(space geom.Rect, ids []int32) bool {
	edged := 0
	for _, id := range ids {
		if !s.rect(id).ContainsRectOpen(space) {
			if edged++; edged > sweepCutoff {
				return s.degenerate(space, ids)
			}
		}
	}
	return true
}

// degenerate is the terminal rule's second clause, asked only of spaces
// over the cutoff: in one pass over the ids, the distinct edge
// coordinates strictly inside the space, per axis, counted up to the
// first past the axis' limit.
func (s *Searcher) degenerate(space geom.Rect, ids []int32) bool {
	var xs, ys edgeLines
	edged := 0
	for _, id := range ids {
		r := s.rect(id)
		if r.ContainsRectOpen(space) {
			continue
		}
		edged++
		xs.add(r.MinX, space.MinX, space.MaxX, sweepXLines)
		xs.add(r.MaxX, space.MinX, space.MaxX, sweepXLines)
		ys.add(r.MinY, space.MinY, space.MaxY, sweepYLines)
		ys.add(r.MaxY, space.MinY, space.MaxY, sweepYLines)
		if ys.n > sweepYLines && (xs.n > sweepXLines || edged > sweepReach) {
			return false
		}
	}
	return true
}

// edgeLines collects distinct coordinates, up to one past a limit of at
// most sweepYLines.
type edgeLines struct {
	v [sweepYLines]float64
	n int
}

// add counts c if it lies strictly inside (lo, hi) and is new.
func (l *edgeLines) add(c, lo, hi float64, limit int) {
	if l.n > limit || !(lo < c && c < hi) {
		return
	}
	for _, v := range l.v[:l.n] {
		if v == c {
			return
		}
	}
	if l.n < limit {
		l.v[l.n] = c
	}
	l.n++
}

// processSpace discretizes one space against the incumbent, prunes, and
// either stops (nothing left) or splits and emits the two sub-spaces; a
// space the terminal rule takes is swept instead. The space's best
// candidate is left in s.cur.
func (s *Searcher) processSpace(it kernel.Item, incumbent asp.Result, emit func(kernel.Item)) {
	s.ensureScratch()
	s.beginItem(incumbent)
	// SolveCell asked the terminal rule of its seed already.
	if !s.cellSeed(it) && s.swept(it) {
		return
	}
	s.Stats.Discretizations++
	s.grid.shape(s.gridFor(it))
	dirty := s.discretize(it.Space, it.Clip, it.Ids)
	if len(dirty) == 0 {
		return
	}
	if len(dirty) == 1 {
		// Nothing to partition: recurse into the single cell's extent.
		s.push(emit, dirty[0].rect, dirty[0].lb, it)
		return
	}
	g1, lb1, g2, lb2 := split(dirty)
	s.Stats.Splits++
	s.push(emit, g1, lb1, it)
	s.push(emit, g2, lb2, it)
}

// cellSeed reports whether it is the seed of SolveCell's kernel run: the
// one item of the run whose ids the caller owns.
func (s *Searcher) cellSeed(it kernel.Item) bool { return s.cell && !it.Pooled }

// gridFor is the grid a space is discretized at: NCol×NRow, but for
// SolveCell's seed a grid sized to its rectangles (cellGrid).
func (s *Searcher) gridFor(it kernel.Item) (ncol, nrow int) {
	if s.cellSeed(it) {
		return cellGrid(len(it.Ids), s.opt.NCol), cellGrid(len(it.Ids), s.opt.NRow)
	}
	return s.opt.NCol, s.opt.NRow
}

// swept applies the terminal rule to a space: if it is sweepable, one
// mini-sweep solves it and swept reports true.
func (s *Searcher) swept(it kernel.Item) bool {
	if !s.sweepable(it.Space, it.Ids) {
		return false
	}
	s.miniSweep(it.Space, it.Ids)
	return true
}

// childIds filters the parent's ids down to those intersecting space,
// into a recycled slice sized by the binary-searched window.
func (s *Searcher) childIds(parent []int32, space geom.Rect) []int32 {
	window := s.idWindow(parent, space.MinX, space.MaxX)
	out := s.getIds(len(window))
	for _, id := range window {
		r := s.rect(id)
		if r.MinX < space.MaxX && space.MinX < r.MaxX &&
			r.MinY < space.MaxY && space.MinY < r.MaxY {
			out = append(out, id)
		}
	}
	return out
}

// push emits a child space, guarding against non-shrinking children
// (which would never meet the terminal rule) by bisecting instead.
//
// A child the terminal rule would sweep once popped is swept here
// instead: it costs the same now, and what it finds is at once the
// incumbent its sibling and every queued space are pruned against. The
// loop pops by lower bound, and the thin strips a split peels off a
// space — bounded above their wide sibling, yet holding its best
// candidates — would otherwise wait while that sibling is split again
// and again against a stale incumbent (DESIGN.md §4).
func (s *Searcher) push(emit func(kernel.Item), child geom.Rect, lb float64, parent kernel.Item) {
	if lb >= s.threshold() {
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
	queue := func(space geom.Rect) {
		it := kernel.Item{Space: space, Clip: clipOf(space), LB: lb, Ids: s.childIds(parent.Ids, space), Pooled: true}
		if s.swept(it) {
			s.putIds(it.Ids)
			return
		}
		emit(it)
	}
	const shrink = 0.999 // child must be meaningfully smaller in some axis
	if child.Width() > parent.Space.Width()*shrink && child.Height() > parent.Space.Height()*shrink {
		s.Stats.Bisections++
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
		queue(left)
		queue(right)
		return
	}
	queue(child)
}

// miniSweep runs the Base algorithm restricted to one space — one the
// terminal rule takes, or one of zero area (DESIGN.md §3) — against the
// incumbent of the space being processed. The incumbent's distance caps
// candidate evaluation: improve() discards anything scoring above it
// (ties included — the cap is open at cur.Dist), so those candidates may
// abandon their distance march early.
func (s *Searcher) miniSweep(space geom.Rect, ids []int32) {
	if r, ok := s.sweepUnder(space, ids, s.cur.Dist); ok && r.Rep != nil {
		s.improve(r.Dist, r.Point, r.Rep)
	}
}

// sweepUnder is the mini-sweep of a space under an evaluation cap
// (sweep.Solver.SolveWithinCapped; +Inf for none): the least candidate
// of the space scoring at most capDist, in a representation of its own,
// or, when the space has candidates but none scores at most capDist, a
// result of distance +Inf and no representation; false when the space
// has no candidate at all. The rectangles that contain the space
// cover every candidate the sweep enumerates and add the same vector to
// each: their limb contributions are summed once, in id order like the
// grid fill's, into a base the solver starts from, and only the
// rectangles with an edge inside are swept. The solver is bound to the
// core's limbs and rows (ensureScratch) and reads each swept rectangle's
// row where the core holds it, by master id; it is rebound in place, so
// steady-state sweeps reuse all of their scratch.
func (s *Searcher) sweepUnder(space geom.Rect, ids []int32, capDist float64) (asp.Result, bool) {
	c := s.core
	s.swRects, s.swIds = s.swRects[:0], s.swIds[:0]
	base := s.swBase
	clear(base)
	covering := 0
	for _, id := range ids {
		r := s.rect(id)
		if r.ContainsRectOpen(space) {
			for _, cb := range c.rectContribs(id) {
				base[cb.Ch] += cb.V
			}
			covering++
		} else if r.MinX < space.MaxX && space.MinX < r.MaxX && r.MinY < space.MaxY && space.MinY < r.MaxY {
			s.swRects, s.swIds = append(s.swRects, r), append(s.swIds, id)
		}
	}
	s.Stats.MiniSweeps++
	s.Stats.MiniSweepRects += len(s.swRects)
	s.Stats.SweepBaseRects += covering
	s.sw.Rebind(s.swRects, s.swIds, base)
	// The solver's counters accumulate across rebinds (a recycled solver
	// serves many searches); fold only this sweep's strip and scoring
	// deltas into the search stats.
	before := s.sw.Stats
	// A capped sweep returns its +Inf sentinel when nothing scored under
	// the cap.
	r, ok := s.sw.SolveWithinCapped(space, capDist)
	after := &s.sw.Stats
	s.Stats.FlatStrips += after.FlatStrips - before.FlatStrips
	s.Stats.SweepScored += after.Scored - before.Scored
	s.Stats.PrunedStrips += after.PrunedStrips - before.PrunedStrips
	return r, ok
}

// PointRepresentation computes F(p) over the master set, restricted to
// the binary-searched window of the rectangles whose open x-range holds
// p.X: the limb contributions of the covering rectangles, summed in
// master order and folded once — the value the grid fill and the sweeps
// form.
func (s *Searcher) PointRepresentation(p geom.Point) []float64 {
	t := s.core
	ch := make([]float64, t.limbs.Eff())
	for i, hi := s.window(p.X, p.X); i < hi; i++ {
		if s.rect(int32(i)).ContainsOpen(p) {
			for _, cb := range t.rectContribs(int32(i)) {
				ch[cb.Ch] += cb.V
			}
		}
	}
	out := make([]float64, s.query.F.Dims())
	s.query.F.FinalizeExact(t.limbs.Fold(make([]float64, t.chans), ch), out)
	return out
}

// Plan returns the plan the searcher reads.
func (s *Searcher) Plan() *Plan { return s.plan }

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

// Objects returns the number of rectangles in the master.
func (s *Searcher) Objects() int { return len(s.pts) }

// Space returns the search space of the whole instance: the minimum
// bounding rectangle of the master rectangles (asp.Space).
func (s *Searcher) Space() geom.Rect { return s.space }

// ReduceForSearch performs the ASP reduction of a search (Definition 5,
// top-right-corner anchor). No search calls it: a searcher reads its
// rectangles from the anchors and (a, b), materializing only a swept
// space's. bench/trace.go samples a workload's rectangles through it,
// which is also why the composite and options arguments, now ignored,
// stay (ROADMAP, signatures to release).
func ReduceForSearch(ds *attr.Dataset, a, b float64, _ *agg.Composite, _ Options) ([]asp.RectObject, error) {
	return asp.Reduce(ds, a, b, asp.AnchorTR)
}
