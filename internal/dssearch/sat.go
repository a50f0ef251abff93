package dssearch

import (
	"math"
	"slices"
	"sort"
	"sync"

	"asrs/internal/agg"
	"asrs/internal/asp"
	"asrs/internal/attr"
	"asrs/internal/sweep"
)

// This file implements the per-query aggregation layer of DS-Search: one
// `tables` value is built per Searcher and owns
//
//   - the master rectangle array, sorted by (MinX, MinY) with ties in
//     input order, so that every space's relevant rectangles form a
//     binary-searchable contiguous window;
//   - the flattened per-rectangle limb contributions (AppendContribs
//     evaluated and split once per query instead of once per
//     discretization);
//   - with a pyramid bound, its anchor-bin level: CSR per-bin id lists
//     over a grid of (MinX, MinY) anchors, with a prefix-summed count
//     plane, from which AppendWindowIDs collects a space's ids in its 2D
//     anchor box instead of the 1D MinX window (DESIGN.md §2).
//
// When Options.Pyramid carries the dataset-level aggregate pyramid
// (pyramid.go), the whole layer is *bound* instead of built: the master
// order and the level are read from its geometry, the contributions and
// limbs aliased from its core, and only the rectangles are materialized
// per query, in one O(n) pass (shape.go), converting the per-query
// O(R log R) setup into amortized shared state (DESIGN.md §6).
//
// Sorting is what the limbs (agg.Limbs) buy: every channel sums in exact
// limbs, each on a power-of-two grid with its total scaled mass within
// 2^52, so every float partial sum the difference-array fill can form is
// exact and a channel's value over a set is a function of its exact limb
// sums, whatever the order — and the incremental mini-sweep may carry
// every limb as a scaled int64. Integer channels pass with scale 1, dyadic
// reals with their finest grid, decimal and full-mantissa reals with two
// limbs, reals spread wider with as many as their mass needs. The values a
// dataset admits (attr.Dataset.Validate) always certify.

// ---- The anchor-bin level ----

// satLevel is the anchor-bin level: CSR per-bin id lists over a g×g grid
// of rectangle anchors, the summed-area table of the bin sizes (the count
// plane), and the conservative threshold arrays that map coordinate
// predicates to bin ranges.
//
// The threshold arrays are *id-anchored*: xMaxUpTo[i] is the master id
// whose anchor attains the maximum anchor x over bin columns [0, i]
// (-1 while empty), and xMinFrom[i] the id attaining the minimum over
// columns [i, g). Queries compare the id's actual per-query coordinate
// (master[id].Rect.MinX) rather than stored bin geometry, which makes a
// level valid for any rigid translation of the anchor set: the
// dataset-level pyramid stores bins over object locations, and the same
// arrays bound the translated per-query anchors (MinX = x − a) exactly,
// because translation by a constant is monotone and preserves argmax /
// argmin. Lookups are O(log g) binary searches, and every
// interior/exterior claim they certify is conservative; the readers test
// each anchor of the bins left uncertain exactly, so what they collect
// depends only on the true predicate sets, not on the bin geometry.
type satLevel struct {
	gx, gy   int
	bw, bh   float64 // bin extents in stored space (binning only, see binOf)
	bx0, by0 float64 // bin grid origin in stored space (binning only)

	binStart []int32 // gx*gy+1 CSR offsets
	binIds   []int32 // master ids grouped by bin, ascending within a bin
	cnt      []int32 // (gx+1)*(gy+1) prefix sums of the bin sizes, derived from binStart

	xMaxUpTo, xMinFrom []int32 // len gx, id-anchored prefix extremes (x)
	yMaxUpTo, yMinFrom []int32 // len gy, id-anchored prefix extremes (y)
}

// xBinLT returns the largest h in [0, gx] such that every anchor in bin
// columns [0, h) certainly has MinX < x.
func (l *satLevel) xBinLT(master []asp.RectObject, x float64) int {
	return sort.Search(l.gx, func(i int) bool {
		id := l.xMaxUpTo[i]
		// An empty prefix is vacuously below any threshold.
		return id >= 0 && master[id].Rect.MinX >= x
	})
}

// xBinGT returns the smallest h in [0, gx] such that every anchor in
// bin columns [h, gx) certainly has MinX > x (or MinX ≥ x when orEq).
func (l *satLevel) xBinGT(master []asp.RectObject, x float64, orEq bool) int {
	return sort.Search(l.gx, func(i int) bool {
		id := l.xMinFrom[i]
		if id < 0 {
			return true // empty suffix: vacuously above any threshold
		}
		v := master[id].Rect.MinX
		if orEq {
			return v >= x
		}
		return v > x
	})
}

// yBinLT / yBinGT mirror the x variants over bin rows and MinY.
func (l *satLevel) yBinLT(master []asp.RectObject, y float64) int {
	return sort.Search(l.gy, func(i int) bool {
		id := l.yMaxUpTo[i]
		return id >= 0 && master[id].Rect.MinY >= y
	})
}

func (l *satLevel) yBinGT(master []asp.RectObject, y float64, orEq bool) int {
	return sort.Search(l.gy, func(i int) bool {
		id := l.yMinFrom[i]
		if id < 0 {
			return true
		}
		v := master[id].Rect.MinY
		if orEq {
			return v >= y
		}
		return v > y
	})
}

// countRegion returns the number of anchors in bins [i0,i1)×[j0,j1)
// via a four-corner lookup on the count plane.
func (l *satLevel) countRegion(i0, i1, j0, j1 int) int {
	i0, j0 = max(i0, 0), max(j0, 0)
	i1, j1 = min(i1, l.gx), min(j1, l.gy)
	if i0 >= i1 || j0 >= j1 {
		return 0
	}
	w := l.gx + 1
	return int(l.cnt[j1*w+i1] - l.cnt[j0*w+i1] - l.cnt[j1*w+i0] + l.cnt[j0*w+i0])
}

// sumCounts derives the count plane from the CSR offsets: cnt[j*(gx+1)+i]
// is the number of anchors in bins [0,i)×[0,j). Bins are stored row-major,
// so a bin row's running count is a difference of two offsets.
func (l *satLevel) sumCounts() {
	w := l.gx + 1
	l.cnt = resizeInt32(l.cnt, w*(l.gy+1))
	clear(l.cnt[:w])
	for j := 1; j <= l.gy; j++ {
		row, below := l.cnt[j*w:][:w], l.cnt[(j-1)*w:][:w]
		start := l.binStart[(j-1)*l.gx:][:w]
		for i := range row {
			row[i] = below[i] + start[i] - start[0]
		}
	}
}

// binOf maps a stored anchor to its bin column and row: a uniform grid
// of bw×bh bins from the origin (bx0, by0), anchors outside it clamped
// into the edge bins. Nothing a level answers depends on WHICH bin an
// anchor sits in — only on binIds/binStart, the count plane and the
// threshold arrays describing one and the same assignment — so a level
// patched by a delta fold (delta.go) keeps its base's grid even after
// the corpus has outgrown it.
func (l *satLevel) binOf(x, y float64) (bi, bj int) {
	bi = int((x - l.bx0) / l.bw)
	if bi < 0 {
		bi = 0
	}
	if bi >= l.gx {
		bi = l.gx - 1
	}
	bj = int((y - l.by0) / l.bh)
	if bj < 0 {
		bj = 0
	}
	if bj >= l.gy {
		bj = l.gy - 1
	}
	return bi, bj
}

// buildSATLevel fills l with a g×g bin grid over the stored anchor
// coordinates xs/ys (aligned with master ids 0..n-1), its count plane
// and the id-anchored threshold arrays. Slabs are reused across builds.
func buildSATLevel(l *satLevel, g int, xs, ys []float64) {
	n := len(xs)
	l.gx, l.gy = g, g

	bx0, by0 := math.Inf(1), math.Inf(1)
	bx1, by1 := math.Inf(-1), math.Inf(-1)
	for i := 0; i < n; i++ {
		if xs[i] < bx0 {
			bx0 = xs[i]
		}
		if xs[i] > bx1 {
			bx1 = xs[i]
		}
		if ys[i] < by0 {
			by0 = ys[i]
		}
		if ys[i] > by1 {
			by1 = ys[i]
		}
	}
	l.bx0, l.by0 = bx0, by0
	l.bw = (bx1 - bx0) / float64(g)
	l.bh = (by1 - by0) / float64(g)
	if !(l.bw > 0) {
		l.bw = 1
	}
	if !(l.bh > 0) {
		l.bh = 1
	}

	// CSR bins via counting sort (stable: ids ascend within each bin).
	nb := g * g
	l.binStart = resizeInt32(l.binStart, nb+1)
	for i := range l.binStart {
		l.binStart[i] = 0
	}
	for i := 0; i < n; i++ {
		bi, bj := l.binOf(xs[i], ys[i])
		l.binStart[bj*g+bi+1]++
	}
	for b := 0; b < nb; b++ {
		l.binStart[b+1] += l.binStart[b]
	}
	l.binIds = resizeInt32(l.binIds, n)
	fill := append([]int32(nil), l.binStart[:nb]...)
	for i := 0; i < n; i++ {
		bi, bj := l.binOf(xs[i], ys[i])
		b := bj*g + bi
		l.binIds[fill[b]] = int32(i)
		fill[b]++
	}
	l.sumCounts()

	// Id-anchored threshold arrays: per-column / per-row extreme anchor,
	// then prefix-max / suffix-min runs.
	l.xMaxUpTo = resizeInt32(l.xMaxUpTo, g)
	l.xMinFrom = resizeInt32(l.xMinFrom, g)
	l.yMaxUpTo = resizeInt32(l.yMaxUpTo, g)
	l.yMinFrom = resizeInt32(l.yMinFrom, g)
	colMax := l.xMaxUpTo
	colMin := l.xMinFrom
	rowMax := l.yMaxUpTo
	rowMin := l.yMinFrom
	for i := 0; i < g; i++ {
		colMax[i], colMin[i], rowMax[i], rowMin[i] = -1, -1, -1, -1
	}
	for i := 0; i < n; i++ {
		bi, bj := l.binOf(xs[i], ys[i])
		if colMax[bi] < 0 || xs[i] > xs[colMax[bi]] {
			colMax[bi] = int32(i)
		}
		if colMin[bi] < 0 || xs[i] < xs[colMin[bi]] {
			colMin[bi] = int32(i)
		}
		if rowMax[bj] < 0 || ys[i] > ys[rowMax[bj]] {
			rowMax[bj] = int32(i)
		}
		if rowMin[bj] < 0 || ys[i] < ys[rowMin[bj]] {
			rowMin[bj] = int32(i)
		}
	}
	run := int32(-1)
	for i := 0; i < g; i++ {
		if colMax[i] >= 0 && (run < 0 || xs[colMax[i]] > xs[run]) {
			run = colMax[i]
		}
		colMax[i] = run
	}
	run = -1
	for i := g - 1; i >= 0; i-- {
		if colMin[i] >= 0 && (run < 0 || xs[colMin[i]] < xs[run]) {
			run = colMin[i]
		}
		colMin[i] = run
	}
	run = -1
	for i := 0; i < g; i++ {
		if rowMax[i] >= 0 && (run < 0 || ys[rowMax[i]] > ys[run]) {
			run = rowMax[i]
		}
		rowMax[i] = run
	}
	run = -1
	for i := g - 1; i >= 0; i-- {
		if rowMin[i] >= 0 && (run < 0 || ys[rowMin[i]] < ys[run]) {
			run = rowMin[i]
		}
		rowMin[i] = run
	}
}

// tables is the per-query aggregation layer described above, built by
// newSearcher. With a pyramid bound the core slices alias the
// persistent per-composite structure (shared == true).
type tables struct {
	f     *agg.Composite
	chans int // channels (f.Channels())

	// limbs is the certificate (see the file note): contributions are
	// flattened in its limb layout.
	limbs agg.Limbs

	wmin, wmax float64 // range of rect widths (MaxX-MinX) over the master set
	hmin, hmax float64

	minXs    []float64 // master[i].Rect.MinX, aligned with master order
	minXsBuf []float64 // owned backing slab for minXs

	// Flattened limb contributions: master[i] contributes
	// contribs[cOff[i]:cOff[i+1]]; likewise mm contributions.
	cOff     []int32
	contribs []agg.Contrib
	mOff     []int32
	mms      []agg.MMContrib

	// Build scratch (flatten, buildTables): the contributions in input
	// order as AppendContribs emits them, and the master order's sort
	// keys and permutation.
	rawOff []int32
	raw    []agg.Contrib
	keys   []anchorKey
	perm   []int32

	// shared marks slices aliased from a Pyramid: reset must drop them
	// instead of truncating, or later classic builds would append into
	// the pyramid's read-only memory. pyr is the bound pyramid, nil on
	// the one-shot path; its anchor-bin level backs appendBinIDs.
	shared bool
	pyr    *Pyramid

	// Retained heavy per-query scratch, recycled across queries through
	// the SlabCache: the master a pyramid bind materializes, the
	// discretization grid, the sweep solver and the search buffers
	// (Searcher.ensureScratch). Keys record the shape they were built for.
	// masterDS and masterOrder record what masterBuf holds — the objects
	// masterDS.Objects[masterOrder[i]], put there by the last full pass of
	// a bind — so that a bind of the same objects in the same order only
	// moves the rectangles (Pyramid.shape). They name the dataset and the
	// order array, never the pyramid, which a slab would keep alive past
	// its epoch.
	masterBuf                   []asp.RectObject
	masterDS                    *attr.Dataset
	masterOrder                 []int32
	grid                        *gridBuffers
	gridNCol, gridNRow, gridEff int
	gridF                       *agg.Composite
	sw                          *sweep.Solver
	swEff                       int
	scratchF                    []float64
	scratchCells                []cellInfo
	scratchRects                []asp.RectObject

	// idBits is the bitmap appendBinIDs marks a space's ids in, one bit
	// per id of the MinX window.
	idBits []uint64

	// Recycled id slices handed back by a released Searcher (slab reuse
	// across Engine queries).
	idFree [][]int32
}

// reset prepares a recycled tables value for a new query, keeping every
// slice's capacity (the quantization-certificate slabs ride the
// SlabCache across queries on the same composite).
func (t *tables) reset() {
	t.pyr = nil
	t.minXs = nil // a view of minXsBuf
	if t.shared {
		// Aliased pyramid memory: drop, never truncate.
		t.shared = false
		t.cOff, t.contribs = nil, nil
		t.mOff, t.mms = nil, nil
		t.limbs = agg.Limbs{}
		return
	}
	t.cOff = t.cOff[:0]
	t.contribs = t.contribs[:0]
	t.mOff = t.mOff[:0]
	t.mms = t.mms[:0]
}

// buildTables constructs the layer over master for the composite f.
// When own is true the master slice may be re-sorted in place; otherwise
// a sorted copy is made if it is not sorted yet. It returns the master
// actually used (== the input unless a copy was needed), or the error of
// contributions that do not certify.
func buildTables(t *tables, master []asp.RectObject, f *agg.Composite, own bool) ([]asp.RectObject, error) {
	t.f = f
	t.chans = f.Channels()
	t.measureExtents(master)
	perm := t.sortPerm(master)
	if err := t.flatten(len(master), func(i int) *attr.Object { return master[i].Obj }, perm); err != nil {
		return nil, err
	}
	if perm != nil {
		if own {
			permute(master, perm)
		} else {
			sorted := make([]asp.RectObject, len(master))
			for i, j := range perm {
				sorted[i] = master[j]
			}
			master = sorted
		}
	}
	t.fillMinXs(master)
	return master, nil
}

// sortPerm returns the permutation that sorts master into the master
// order — (MinX, MinY, input index), the order BuildGeometry sorts
// anchors in — or nil when master is in that order already.
func (t *tables) sortPerm(master []asp.RectObject) []int32 {
	if slices.IsSortedFunc(master, func(a, b asp.RectObject) int {
		return compareAnchors(anchorKey{a.Rect.MinX, a.Rect.MinY, 0}, anchorKey{b.Rect.MinX, b.Rect.MinY, 0})
	}) {
		return nil
	}
	t.keys = t.keys[:0]
	for i := range master {
		r := &master[i].Rect
		t.keys = append(t.keys, anchorKey{r.MinX, r.MinY, int32(i)})
	}
	t.perm = sortAnchors(t.keys, t.perm)
	return t.perm
}

// permute reorders master in place so that master[i] is the old
// master[perm[i]], walking each cycle of perm once. perm is marked while
// it is walked and restored.
func permute(master []asp.RectObject, perm []int32) {
	for i := range perm {
		if perm[i] < 0 {
			continue
		}
		first := master[i]
		j := i
		for {
			k := int(perm[j])
			perm[j] = ^perm[j]
			if k == i {
				master[j] = first
				break
			}
			master[j] = master[k]
			j = k
		}
	}
	for i := range perm {
		perm[i] = ^perm[i]
	}
}

// fillMinXs (re)derives the sorted-order MinX array into the owned slab.
func (t *tables) fillMinXs(master []asp.RectObject) {
	t.minXsBuf = t.minXsBuf[:0]
	for i := range master {
		t.minXsBuf = append(t.minXsBuf, master[i].Rect.MinX)
	}
	t.minXs = t.minXsBuf
}

// measureExtents records the width/height ranges of the master set.
func (t *tables) measureExtents(master []asp.RectObject) {
	t.wmin, t.wmax = math.Inf(1), math.Inf(-1)
	t.hmin, t.hmax = math.Inf(1), math.Inf(-1)
	for i := range master {
		r := &master[i].Rect
		if w := r.MaxX - r.MinX; true {
			if w < t.wmin {
				t.wmin = w
			}
			if w > t.wmax {
				t.wmax = w
			}
		}
		if h := r.MaxY - r.MinY; true {
			if h < t.hmin {
				t.hmin = h
			}
			if h > t.hmax {
				t.hmax = h
			}
		}
	}
}

// flatten fills the contribution tables of the objects obj(0..n-1) in
// master order — row i is obj(perm[i]), or obj(i) for a nil perm — from
// one AppendContribs pass in input order: the limbs are certified over
// the contributions in that order (Limbs.Certify sums floats in the
// order given), and the master rows are the input rows permuted and split
// into the limbs. Every limb sum is order-free, so the reordering is
// harmless.
func (t *tables) flatten(n int, obj func(int) *attr.Object, perm []int32) error {
	t.rawOff = append(reserve(t.rawOff, n+1), 0)
	t.raw = t.raw[:0]
	for i := 0; i < n; i++ {
		t.raw = t.f.AppendContribs(obj(i), t.raw)
		if i == 0 && cap(t.raw) < n*len(t.raw) {
			// Room for n rows the size of the first.
			t.raw = append(make([]agg.Contrib, 0, n*len(t.raw)), t.raw...)
		}
		t.rawOff = append(t.rawOff, int32(len(t.raw)))
	}
	if err := t.limbs.Certify(t.chans, t.raw); err != nil {
		return err
	}
	row := func(i int) int {
		if perm == nil {
			return i
		}
		return int(perm[i])
	}
	split := t.limbs.Eff() > t.chans
	if perm == nil && !split {
		// The input rows are the master rows: keep them.
		t.cOff, t.rawOff = t.rawOff, t.cOff
		t.contribs, t.raw = t.raw, t.contribs
	} else {
		t.cOff = append(reserve(t.cOff, n+1), 0)
		t.contribs = reserve(t.contribs, len(t.raw))
		for i := 0; i < n; i++ {
			start := len(t.contribs)
			r := row(i)
			t.contribs = append(t.contribs, t.raw[t.rawOff[r]:t.rawOff[r+1]]...)
			if split {
				t.contribs = t.limbs.Split(t.contribs, start)
			}
			t.cOff = append(t.cOff, int32(len(t.contribs)))
		}
	}
	t.flattenMM(n, func(i int) *attr.Object { return obj(row(i)) })
	return nil
}

// reserve returns s emptied, with room for n elements: s's own memory, or
// a new array of exactly n.
func reserve[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// flattenSplit fills the contribution tables of the objects obj(0..n-1),
// in that order, split under the tables' limbs, which are taken as given:
// a loaded pyramid's (PyramidFromSnapshot).
func (t *tables) flattenSplit(n int, obj func(int) *attr.Object) {
	t.cOff = append(t.cOff[:0], 0)
	t.contribs = t.contribs[:0]
	for i := 0; i < n; i++ {
		start := len(t.contribs)
		t.contribs = t.limbs.Split(t.f.AppendContribs(obj(i), t.contribs), start)
		t.cOff = append(t.cOff, int32(len(t.contribs)))
	}
	t.flattenMM(n, obj)
}

// flattenMM fills the min/max contribution tables of the objects
// obj(0..n-1), in that order.
func (t *tables) flattenMM(n int, obj func(int) *attr.Object) {
	if t.f.MinMaxSlots() == 0 {
		return
	}
	t.mOff = append(reserve(t.mOff, n+1), 0)
	t.mms = t.mms[:0]
	for i := 0; i < n; i++ {
		t.mms = t.f.AppendMM(obj(i), t.mms)
		t.mOff = append(t.mOff, int32(len(t.mms)))
	}
}

// rectContribs returns master[id]'s flattened channel contributions.
func (t *tables) rectContribs(id int32) []agg.Contrib {
	return t.contribs[t.cOff[id]:t.cOff[id+1]]
}

// rectMM returns master[id]'s flattened min/max contributions.
func (t *tables) rectMM(id int32) []agg.MMContrib {
	return t.mms[t.mOff[id]:t.mOff[id+1]]
}

// windowLo returns the first master index whose MinX exceeds x
// (binary search over the sorted minXs).
func (t *tables) windowLo(x float64) int {
	return sort.Search(len(t.minXs), func(i int) bool { return t.minXs[i] > x })
}

// windowHi returns the first master index whose MinX is >= x.
func (t *tables) windowHi(x float64) int {
	return sort.SearchFloat64s(t.minXs, x)
}

// window returns the [lo, hi) master index range that must contain every
// rectangle whose open interior intersects the open x-range (x0, x1):
// such a rectangle has MinX < x1 and MaxX > x0, hence MinX > x0 - wmax.
func (t *tables) window(x0, x1 float64) (int, int) {
	lo := t.windowLo(x0 - t.wmax)
	hi := t.windowHi(x1)
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// idWindow is window over an id list that ascends in MinX (a space's
// ids): the run of ids whose MinX lies in (x0 − wmax, x1), which holds
// every one whose rectangle's open x-range meets (x0, x1).
func (t *tables) idWindow(ids []int32, x0, x1 float64) []int32 {
	x0 -= t.wmax
	lo := sort.Search(len(ids), func(k int) bool { return t.minXs[ids[k]] > x0 })
	hi := sort.Search(len(ids), func(k int) bool { return t.minXs[ids[k]] >= x1 })
	return ids[min(lo, hi):hi]
}

// resizeInt32 returns a slice of length n reusing capacity.
func resizeInt32(v []int32, n int) []int32 {
	if cap(v) >= n {
		return v[:n]
	}
	return make([]int32, n)
}

// ---- Slab cache ----

// SlabCache recycles the per-query table slabs (sorted coordinate
// arrays, contribution tables, the discretization grid, the sweep
// solver, id slices) across searches. An Engine holds one per
// composite so that steady-state serving rebuilds table *contents* each
// query but reallocates nothing. Safe for concurrent use; the zero value
// is ready.
type SlabCache struct {
	mu   sync.Mutex
	free []*tables
}

// get returns a recycled tables value (reset, capacities kept) or a
// fresh one.
func (c *SlabCache) get() *tables {
	if c == nil {
		return &tables{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.free); n > 0 {
		t := c.free[n-1]
		c.free = c.free[:n-1]
		t.reset()
		return t
	}
	return &tables{}
}

// put hands a tables value back for reuse.
func (c *SlabCache) put(t *tables) {
	if c == nil || t == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.free) < 4 {
		c.free = append(c.free, t)
	}
}
