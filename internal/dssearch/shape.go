package dssearch

import (
	"math"

	"asrs/internal/geom"
)

// A query shape is an answer size (a, b) over one geometry. Nothing of a
// shape is materialized: a search reads rectangle id as
// geom.RectFromTR(pts[id], a, b) from the geometry's anchors, so binding
// a shape costs only the facts below, which the shape's first query
// derives in one pass over the anchors and every later one reads from
// the geometry's memo. One order serves every shape: the anchors' (x, y,
// index) order, in which x − a and y − b are non-decreasing for any
// (a, b), so every binary search over MinX runs over it unchanged.

// shapeFacts is everything about a shape that is O(1) in size but O(n)
// to derive from (anchors, a, b): the width/height ranges and the space
// (the master's MBR). None of it depends on the composite, so every
// composite's pyramid of an epoch reads the one memo of its geometry.
type shapeFacts struct {
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

// shapeFacts returns the facts of the a×b shape, derived by the first
// caller of a shape (concurrent first callers each derive the same
// values) and remembered.
func (g *Geometry) shapeFacts(a, b float64) shapeFacts {
	k := shapeKey{math.Float64bits(a), math.Float64bits(b)}
	facts, known := g.knownFacts(k)
	if !known {
		facts = deriveFacts(g.pts, a, b)
		g.rememberFacts(k, facts)
	}
	return facts
}

// deriveFacts computes a shape's facts from the anchors in master order:
// the extents and the MBR of the rectangles RectFromTR(p, a, b), from the
// floats a reduction forms.
func deriveFacts(pts []geom.Point, a, b float64) shapeFacts {
	f := shapeFacts{
		wmin: math.Inf(1), wmax: math.Inf(-1),
		hmin: math.Inf(1), hmax: math.Inf(-1),
		space: geom.EmptyRect(),
	}
	for _, p := range pts {
		r := geom.RectFromTR(p, a, b)
		w, h := r.MaxX-r.MinX, r.MaxY-r.MinY
		if w < f.wmin {
			f.wmin = w
		}
		if w > f.wmax {
			f.wmax = w
		}
		if h < f.hmin {
			f.hmin = h
		}
		if h > f.hmax {
			f.hmax = h
		}
		f.space.ExpandToInclude(r.BL())
		f.space.ExpandToInclude(r.TR())
	}
	return f
}

// Prepared is a shape's facts. No search binds one (a bind reads the
// geometry's memo); Prepare is what bench/trace.go times as the cost of
// one bind and what shape_test.go reads a shape's facts through (ROADMAP,
// signatures to release).
type Prepared struct{ facts shapeFacts }

// Prepare derives or reads the facts of an a×b shape. ok is false only
// for a nil pyramid or an extent that is not positive and finite: every
// other shape binds.
func (p *Pyramid) Prepare(a, b float64) (*Prepared, bool) {
	if p == nil || CheckExtent(a, b) != nil {
		return nil, false
	}
	return &Prepared{facts: p.geo.shapeFacts(a, b)}, true
}
