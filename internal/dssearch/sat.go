package dssearch

import (
	"sync"

	"asrs/internal/agg"
	"asrs/internal/asp"
	"asrs/internal/attr"
	"asrs/internal/geom"
	"asrs/internal/sweep"
)

// This file implements the per-query aggregation layer of DS-Search: one
// `tables` value is taken per Searcher and holds
//
//   - the flattened per-rectangle limb contributions in master order
//     (AppendContribs evaluated and split once, not once per
//     discretization);
//   - for a one-shot search, the master itself: the dataset's anchors in
//     the (x, y, index) order with the order permutation (layOut), so
//     that every space's relevant rectangles form a binary-searchable
//     contiguous window.
//
// A rectangle is its anchor: under the top-right reduction rectangle id
// is geom.RectFromTR(pts[id], a, b) (Definition 5), so its MinX is
// pts[id].X − a, the very float a reduction forms, and non-decreasing in
// master order like the anchors' x. The searcher reads every rectangle,
// window and threshold that way from the anchors and the query's (a, b);
// no shape is materialized.
//
// When Options.Pyramid carries the dataset-level aggregate pyramid
// (pyramid.go), the whole layer is *bound* instead of built: the anchors
// and the order are read from its geometry, and the contributions and
// limbs aliased from its core. A bind is O(1) once the shape's facts are
// known (shape.go), converting the per-query sort and flatten into
// amortized shared state (DESIGN.md §6).
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

// tables is the per-query aggregation layer described above. With a
// pyramid bound the core slices alias the persistent per-composite
// structure (shared == true).
type tables struct {
	f     *agg.Composite
	chans int // channels (f.Channels())

	// limbs is the certificate (see the file note): contributions are
	// flattened in its limb layout.
	limbs agg.Limbs

	// Flattened limb contributions: master id i contributes
	// contribs[cOff[i]:cOff[i+1]]; likewise mm contributions.
	cOff     []int32
	contribs []agg.Contrib
	mOff     []int32
	mms      []agg.MMContrib

	// A one-shot search's master (layOut): the anchors in master order and
	// master id -> dataset index. A bound search reads its geometry's.
	pts   []geom.Point
	order []int32

	// Build scratch (flatten, layOut): the contributions in input order as
	// AppendContribs emits them, and the master order's sort.
	rawOff []int32
	raw    []agg.Contrib
	sorter anchorSort

	// shared marks slices aliased from a Pyramid: reset must drop them
	// instead of truncating, or later builds would append into the
	// pyramid's read-only memory.
	shared bool

	// Retained heavy per-query scratch, recycled across queries through
	// the SlabCache: the discretization grid, the sweep solver and the
	// search buffers (Searcher.ensureScratch). Keys record the shape they
	// were built for. None of it refers to a dataset or a pyramid, so a
	// cached slab keeps no epoch alive.
	grid                        *gridBuffers
	gridNCol, gridNRow, gridEff int
	gridF                       *agg.Composite
	sw                          *sweep.Solver
	swEff                       int
	scratchF                    []float64
	scratchCells                []cellInfo
	scratchRects                []asp.RectObject

	// idBits is the bitmap AppendCellIDs marks a space's ids in, one bit
	// per id of the MinX window.
	idBits []uint64

	// Recycled id slices handed back by a released Searcher (slab reuse
	// across Engine queries).
	idFree [][]int32
}

// reset empties a tables value for the next query, keeping every owned
// slice's capacity and dropping the slices aliased from a pyramid.
func (t *tables) reset() {
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

// layOut builds the one-shot layer of ds for f into the slab: the anchors
// in BuildGeometry's master order (layAnchors; a shard band's corpus
// arrives in it and is not sorted) and the core's rows in that order,
// from one flatten (BuildPyramidOn's). It fails on values that do not
// certify.
func (t *tables) layOut(ds *attr.Dataset, f *agg.Composite) error {
	objs := ds.Objects
	t.f, t.chans = f, f.Channels()
	var perm []int32
	if !t.layAnchors(objs) {
		perm = t.order
	}
	return t.flatten(len(objs), func(i int) *attr.Object { return &objs[i] }, perm)
}

// layAnchors fills t.order (master id -> index into objs) and t.pts (the
// anchors in master order) with objs' master order (anchorSort, its
// scratch kept in t.sorter), and reports whether objs were in that order
// already, which is not sorted again.
func (t *tables) layAnchors(objs []attr.Object) (sorted bool) {
	n := len(objs)
	t.order = resizeInt32(t.order, n)
	sorted = t.sorter.order(objs, t.order)
	t.pts = reserve(t.pts, n)
	for _, oi := range t.order {
		t.pts = append(t.pts, objs[oi].Loc)
	}
	return sorted
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

// get returns a recycled tables value (capacities kept) or a fresh one.
func (c *SlabCache) get() *tables {
	if c == nil {
		return &tables{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.free); n > 0 {
		t := c.free[n-1]
		c.free = c.free[:n-1]
		return t
	}
	return &tables{}
}

// put hands a tables value back for reuse, reset: a cached slab holds no
// slice of the pyramid it was bound to.
func (c *SlabCache) put(t *tables) {
	if c == nil || t == nil {
		return
	}
	t.reset()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.free) < 4 {
		c.free = append(c.free, t)
	}
}
