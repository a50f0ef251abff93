package dssearch

import "asrs/internal/geom"

// A query shape is an answer size (a, b) over one geometry. Nothing of a
// shape is materialized or remembered: a search reads rectangle id as
// geom.RectFromTR(pts[id], a, b) from the geometry's anchors, so a
// rectangle's MaxX is its anchor's x, the key the master order sorts by.
// One order serves every shape: in the anchors' (x, y, index) order x − a
// and y − b are non-decreasing for any (a, b), so a binary search over
// MaxX (x) or MinX (x − a) runs over it unchanged, and binding a shape
// costs O(1).

// reductionSpace is the space of the a×b reduction of a dataset whose
// bounding box is bounds: the MBR of its rectangles, [MinX − a, MaxX] ×
// [MinY − b, MaxY]. fl(x − a) never decreases with x, so the least x − a
// is the least x's, and the result equals asp.Space of the reduction bit
// for bit; the empty box (no objects) stays empty.
func reductionSpace(bounds geom.Rect, a, b float64) geom.Rect {
	return geom.Rect{MinX: bounds.MinX - a, MinY: bounds.MinY - b, MaxX: bounds.MaxX, MaxY: bounds.MaxY}
}

// Prepared is a shape bound to a pyramid: its reduction's space. No
// search binds one; Prepare is what bench/trace.go times as the cost of
// one bind (ROADMAP, signatures to release).
type Prepared struct{ space geom.Rect }

// Prepare binds an a×b shape in O(1). ok is false only for a nil pyramid
// or an extent CheckExtent refuses: every other shape binds.
func (p *Pyramid) Prepare(a, b float64) (*Prepared, bool) {
	if p == nil || CheckExtent(a, b) != nil {
		return nil, false
	}
	return &Prepared{space: reductionSpace(p.geo.bounds, a, b)}, true
}
