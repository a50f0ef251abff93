package dssearch

import (
	"math"

	"asrs/internal/asp"
	"asrs/internal/geom"
)

// A query shape is an answer size (a, b) over one pyramid. Binding a
// shape costs one pass over the corpus — the a×b master materialized in
// pyramid order, or, in a slab that holds the pyramid's objects already,
// two floats rewritten per rectangle — plus the facts below, which the
// shape's first query derives and every later one reads from the
// geometry's memo.

// shapeFacts is everything about a shape that is O(1) in size but O(n)
// to derive from (geometry, a, b): whether the translated anchors still
// realize the geometry's order, the width/height ranges and the space
// (the master's MBR). None of it depends on the composite, so every
// composite's pyramid of an epoch reads the one memo of its geometry.
// When ok is false the rest is unset: the shape does not bind and its
// queries build classically.
type shapeFacts struct {
	ok                     bool
	wmin, wmax, hmin, hmax float64
	space                  geom.Rect
}

// shapeKey identifies a shape by the bits of (a, b).
type shapeKey [2]uint64

// maxShapeFacts bounds the memo. A serving workload has a handful of
// shapes; one that sweeps (a, b) continuously gains nothing from a memo,
// and its map is dropped whenever it fills.
const maxShapeFacts = 64

func (g *Geometry) knownFacts(k shapeKey) (shapeFacts, bool) {
	g.factsMu.Lock()
	defer g.factsMu.Unlock()
	f, ok := g.facts[k]
	return f, ok
}

func (g *Geometry) rememberFacts(k shapeKey, f shapeFacts) {
	g.factsMu.Lock()
	defer g.factsMu.Unlock()
	if len(g.facts) >= maxShapeFacts {
		g.facts = nil
	}
	if g.facts == nil {
		g.facts = make(map[shapeKey]shapeFacts)
	}
	g.facts[k] = f
	g.factsDerived++
}

// deriveFacts computes a shape's facts from its materialized master.
func deriveFacts(master []asp.RectObject) shapeFacts {
	if !masterSortedNoCollapse(master) {
		return shapeFacts{}
	}
	var t tables
	t.measureExtents(master)
	return shapeFacts{
		ok:   true,
		wmin: t.wmin, wmax: t.wmax, hmin: t.hmin, hmax: t.hmax,
		space: asp.Space(master),
	}
}

// masterHeadroom sets the spare capacity a slab's master and MinX buffers
// are regrown with, n/masterHeadroom past the n objects of the bind: a
// buffer outgrown once belongs to a growing corpus, whose every epoch
// binds a few more objects than the last, and buffers of exactly n would
// be reallocated by each. A first allocation takes exactly n.
const masterHeadroom = 8

// grow reslices buf to n, reallocating it when it is too small (see
// masterHeadroom).
func grow[T any](buf []T, n int) []T {
	switch {
	case cap(buf) >= n:
		return buf[:n]
	case cap(buf) == 0:
		return make([]T, n)
	}
	return make([]T, n, n+n/masterHeadroom)
}

// shape materializes the a×b master in pyramid order into t.masterBuf,
// and its MinX column into t.minXsBuf (both resliced to the geometry's
// n, regrown with masterHeadroom when too small), straight from the
// objects: bit-identical to reducing the dataset and permuting the
// reduction, in one pass and with no intermediate copy.
// The anchor puts each object exactly at its rectangle's top-right
// corner (geom.RectFromTR), so when the slab's master already holds this
// geometry's objects in this order — the dataset and order array its last
// full pass bound — the pass only moves each rectangle's minimum corner
// to (MaxX−a, MaxY−b): the same floats, with no object read and no
// pointer stored. It returns the shape's facts, derived from the master
// by the first caller of a shape (concurrent first callers each derive
// the same values) and remembered. Facts that are not ok signal an
// anchor collapse under this (a, b): the caller then falls back to the
// classic build. A shape known to collapse returns before the pass.
func (p *Pyramid) shape(a, b float64, t *tables) shapeFacts {
	g := p.geo
	k := shapeKey{math.Float64bits(a), math.Float64bits(b)}
	facts, known := g.knownFacts(k)
	if known && !facts.ok {
		return facts
	}
	master, minXs := grow(t.masterBuf, g.n), grow(t.minXsBuf, g.n)
	t.masterBuf, t.minXsBuf = master, minXs
	if t.masterDS == g.ds && len(t.masterOrder) == len(g.order) && (g.n == 0 || &t.masterOrder[0] == &g.order[0]) {
		for i := range master {
			r := &master[i].Rect
			r.MinX, r.MinY = r.MaxX-a, r.MaxY-b
			minXs[i] = r.MinX
		}
	} else {
		for i, oi := range g.order {
			o := &g.ds.Objects[oi]
			r := asp.AnchorTR.RectFor(o.Loc, a, b)
			master[i] = asp.RectObject{Rect: r, Obj: o}
			minXs[i] = r.MinX
		}
		t.masterDS, t.masterOrder = g.ds, g.order
	}
	if !known {
		facts = deriveFacts(master)
		g.rememberFacts(k, facts)
	}
	return facts
}

// Prepared is what is left of a shape bound into memory of its own: the
// shape's facts. No search binds one (NewRegionSearcher materializes into
// the slab's retained buffers); Prepare is what bench/trace.go times as
// the cost of one bind and what shape_test.go reads a shape's facts
// through (ROADMAP, signatures to release).
type Prepared struct{ facts shapeFacts }

// Prepare materializes the shape of an a×b query into fresh memory.
// ok=false signals an anchor collapse under this particular (a, b): such
// a shape does not bind and its queries build classically.
func (p *Pyramid) Prepare(a, b float64) (*Prepared, bool) {
	if p == nil || a <= 0 || b <= 0 {
		return nil, false
	}
	facts := p.shape(a, b, &tables{})
	if !facts.ok {
		return nil, false
	}
	return &Prepared{facts: facts}, true
}
