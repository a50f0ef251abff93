package dssearch

import (
	"sync"

	"asrs/internal/agg"
	"asrs/internal/attr"
	"asrs/internal/geom"
	"asrs/internal/sweep"
)

// This file implements the aggregation layer of DS-Search and the search
// scratch beside it. The layer is a pyramid's core (pyramid.go): the
// flattened per-rectangle limb contributions in master order
// (AppendContribs evaluated and split once, not once per discretization)
// and their limbs. Every search reads one: the Engine's cached pyramid
// when Options.Pyramid matches the request — or a router band's, joined
// from its shards' (JoinPyramids) — else a one-shot pyramid the searcher
// builds over the request's dataset (newSearcher): one radix sort and one
// flatten, after which it is read the same way. The grid fill, the point
// representations and the terminal rule's mini-sweeps all sum the core's
// rows: the sweep solver is bound to them (core.rows) and reads a swept
// rectangle's row by its master id, so nothing past a pyramid's build
// evaluates a composite over an object.
//
// A rectangle is its anchor: under the top-right reduction rectangle id
// is geom.RectFromTR(pts[id], a, b) (Definition 5), so its MinX is
// pts[id].X − a, the very float a reduction forms, and non-decreasing in
// master order like the anchors' x. The searcher reads every rectangle,
// window and threshold that way from the geometry's anchors and the
// query's (a, b); no shape is materialized.
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
//
// The search scratch — the discretization grid, the sweep solver and the
// buffers — is a slab, recycled across searches through the SlabCache.
// A slab refers to no dataset and no pyramid, so a cached slab keeps no
// epoch alive.

// core is a pyramid's frozen aggregation layer: one composite's limb
// contributions and min/max contributions over a geometry, in master
// order.
type core struct {
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
}

// slab is a search's heavy scratch, recycled across searches through the
// SlabCache: the discretization grid, the sweep solver and the search
// buffers (Searcher.ensureScratch). Keys record the shape they were built
// for.
type slab struct {
	grid                        *gridBuffers
	gridNCol, gridNRow, gridEff int
	gridF                       *agg.Composite
	sw                          *sweep.Solver
	swEff                       int
	scratchF                    []float64
	scratchCells                []cellInfo
	scratchRects                []geom.Rect
	scratchIds                  []int32

	// idBits is the bitmap AppendCellIDs marks a space's ids in, one bit
	// per id of the x window.
	idBits []uint64

	// Recycled id slices handed back by a released Searcher (slab reuse
	// across Engine queries).
	idFree [][]int32
}

// flatten fills the contribution tables of objs in master order — row
// i is objs[order[i]] — from one AppendContribs pass in input order: the
// limbs are certified over the contributions in that order
// (Limbs.Certify sums floats in the order given), and the master rows are
// the input rows permuted and split into the limbs. Every limb sum is
// order-free, so the reordering is harmless.
func (t *core) flatten(objs []attr.Object, order []int32) error {
	n := len(objs)
	// The contributions in input order, as AppendContribs emits them.
	rawOff := append(make([]int32, 0, n+1), 0)
	var raw []agg.Contrib
	for i := range objs {
		raw = t.f.AppendContribs(&objs[i], raw)
		if i == 0 && cap(raw) < n*len(raw) {
			// Room for n rows the size of the first.
			raw = append(make([]agg.Contrib, 0, n*len(raw)), raw...)
		}
		rawOff = append(rawOff, int32(len(raw)))
	}
	if err := t.limbs.Certify(t.chans, raw); err != nil {
		return err
	}
	split := t.limbs.Eff() > t.chans
	t.cOff = append(make([]int32, 0, n+1), 0)
	t.contribs = make([]agg.Contrib, 0, len(raw))
	for _, r := range order {
		start := len(t.contribs)
		t.contribs = append(t.contribs, raw[rawOff[r]:rawOff[r+1]]...)
		if split {
			t.contribs = t.limbs.Split(t.contribs, start)
		}
		t.cOff = append(t.cOff, int32(len(t.contribs)))
	}
	if t.f.MinMaxSlots() > 0 {
		t.mOff = append(make([]int32, 0, n+1), 0)
		for _, r := range order {
			t.mms = t.f.AppendMM(&objs[r], t.mms)
			t.mOff = append(t.mOff, int32(len(t.mms)))
		}
	}
	return nil
}

// rectContribs returns master[id]'s flattened channel contributions.
func (t *core) rectContribs(id int32) []agg.Contrib {
	return t.contribs[t.cOff[id]:t.cOff[id+1]]
}

// rows returns the core's tables in the row form a sweep solver binds:
// master id i's row is row i.
func (t *core) rows() sweep.Rows {
	return sweep.Rows{Off: t.cOff, C: t.contribs, MOff: t.mOff, MM: t.mms}
}

// rectMM returns master[id]'s flattened min/max contributions.
func (t *core) rectMM(id int32) []agg.MMContrib {
	return t.mms[t.mOff[id]:t.mOff[id+1]]
}

// ---- Slab cache ----

// SlabCache recycles the search slabs (the discretization grid, the
// sweep solver, the scratch buffers, id slices) across searches. An
// Engine holds one per composite so that steady-state serving reallocates
// none of them. Safe for concurrent use; the zero value is ready.
type SlabCache struct {
	mu   sync.Mutex
	free []*slab
}

// get returns a recycled slab (capacities kept) or a fresh one.
func (c *SlabCache) get() *slab {
	if c == nil {
		return &slab{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.free); n > 0 {
		t := c.free[n-1]
		c.free = c.free[:n-1]
		return t
	}
	return &slab{}
}

// put hands a slab back for reuse. Its solver is detached from the limbs
// and rows it read, which are the core's: a cached slab holds nothing of
// the pyramid it served.
func (c *SlabCache) put(t *slab) {
	if c == nil || t == nil {
		return
	}
	if t.sw != nil {
		t.sw.Bind(&noLimbs, sweep.Rows{})
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.free) < 4 {
		c.free = append(c.free, t)
	}
}

// noLimbs is the empty layout a cached slab's solver is left on.
var noLimbs agg.Limbs
