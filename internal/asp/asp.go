// Package asp defines the attribute-aware similar point (ASP) problem of
// paper §4.1: the rectangle objects produced by the ASRS→ASP reduction, the
// query (composite aggregator, target representation, weights, norm), and
// the reduction itself (Definition 5, Lemma 1, Theorem 1).
package asp

import (
	"fmt"

	"asrs/internal/agg"
	"asrs/internal/attr"
	"asrs/internal/geom"
)

// RectObject is a rectangle object (Definition 5): an a×b rectangle whose
// attributes are those of the originating spatial object.
type RectObject struct {
	Rect geom.Rect
	Obj  *attr.Object
}

// Covers reports whether the rectangle covers point p under the open
// semantics of Lemma 1 (boundary points are not covered).
func (r RectObject) Covers(p geom.Point) bool { return r.Rect.ContainsOpen(p) }

// Query is a fully specified ASP/ASRS query: minimize
// dist(F(p), Target) under the weighted norm.
type Query struct {
	F      *agg.Composite
	Target []float64 // F(r_q), the query representation
	W      []float64 // per-dimension weights (nil = unit)
	Norm   agg.Norm
}

// Validate checks dimensional consistency.
func (q *Query) Validate() error {
	if q.F == nil {
		return fmt.Errorf("asp: query has nil composite aggregator")
	}
	if len(q.Target) != q.F.Dims() {
		return fmt.Errorf("asp: target has %d dims, aggregator produces %d", len(q.Target), q.F.Dims())
	}
	if q.W != nil && len(q.W) != q.F.Dims() {
		return fmt.Errorf("asp: weight vector has %d dims, aggregator produces %d", len(q.W), q.F.Dims())
	}
	return nil
}

// Distance returns the weighted distance from rep to the query target.
func (q *Query) Distance(rep []float64) float64 {
	return agg.Distance(q.Norm, rep, q.Target, q.W)
}

// DistanceUnder reports whether the weighted distance from rep to the
// query target is strictly below bound, returning the bit-exact
// distance when it is (see agg.DistanceUnder). Candidate scans use it
// with the incumbent best as bound so losing candidates exit after a
// dimension or two.
func (q *Query) DistanceUnder(rep []float64, bound float64) (float64, bool) {
	return agg.DistanceUnder(q.Norm, rep, q.Target, q.W, bound)
}

// Result is a solution to an ASP instance: the best point found, its
// distance, and its aggregate representation.
type Result struct {
	Point geom.Point
	Dist  float64
	Rep   []float64
}

// Anchor selects which part of the generated rectangle coincides with the
// originating object in the reduction. The paper uses the top-right corner
// and notes any corner (or the centroid) works; we support all five.
type Anchor uint8

const (
	// AnchorTR places the object at the rectangle's top-right corner
	// (the paper's default); the answer region then has its bottom-left
	// corner at the ASP answer point (Theorem 1).
	AnchorTR Anchor = iota
	// AnchorTL places the object at the top-left corner.
	AnchorTL
	// AnchorBR places the object at the bottom-right corner.
	AnchorBR
	// AnchorBL places the object at the bottom-left corner.
	AnchorBL
	// AnchorCenter places the object at the centroid.
	AnchorCenter
)

// RectFor returns the rectangle of size a×b anchored at p.
func (an Anchor) RectFor(p geom.Point, a, b float64) geom.Rect {
	switch an {
	case AnchorTL:
		return geom.Rect{MinX: p.X, MinY: p.Y - b, MaxX: p.X + a, MaxY: p.Y}
	case AnchorBR:
		return geom.Rect{MinX: p.X - a, MinY: p.Y, MaxX: p.X, MaxY: p.Y + b}
	case AnchorBL:
		return geom.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X + a, MaxY: p.Y + b}
	case AnchorCenter:
		return geom.Rect{MinX: p.X - a/2, MinY: p.Y - b/2, MaxX: p.X + a/2, MaxY: p.Y + b/2}
	default: // AnchorTR
		return geom.RectFromTR(p, a, b)
	}
}

// RegionFor maps an ASP answer point back to the a×b ASRS answer region
// for this anchor (the inverse of the reduction: with AnchorTR the region's
// bottom-left corner is the point, per Theorem 1).
func (an Anchor) RegionFor(p geom.Point, a, b float64) geom.Rect {
	switch an {
	case AnchorTL:
		return geom.Rect{MinX: p.X - a, MinY: p.Y, MaxX: p.X, MaxY: p.Y + b}
	case AnchorBR:
		return geom.Rect{MinX: p.X, MinY: p.Y - b, MaxX: p.X + a, MaxY: p.Y}
	case AnchorBL:
		return geom.Rect{MinX: p.X - a, MinY: p.Y - b, MaxX: p.X, MaxY: p.Y}
	case AnchorCenter:
		return geom.Rect{MinX: p.X - a/2, MinY: p.Y - b/2, MaxX: p.X + a/2, MaxY: p.Y + b/2}
	default: // AnchorTR
		return geom.RectFromBL(p, a, b)
	}
}

// Reduce performs the ASRS→ASP reduction (Definition 5): every spatial
// object becomes an a×b rectangle anchored at the object. A point p is
// covered by object o's rectangle iff o lies strictly inside the region
// RegionFor(p) (Lemma 1), so solving ASP solves ASRS (Theorem 1).
func Reduce(ds *attr.Dataset, a, b float64, an Anchor) ([]RectObject, error) {
	if a <= 0 || b <= 0 {
		return nil, fmt.Errorf("asp: query region size must be positive, got %g x %g", a, b)
	}
	rects := make([]RectObject, len(ds.Objects))
	for i := range ds.Objects {
		o := &ds.Objects[i]
		rects[i] = RectObject{Rect: an.RectFor(o.Loc, a, b), Obj: o}
	}
	return rects, nil
}

// Space returns the search space for a set of rectangle objects: their
// minimum bounding rectangle. Points outside it are covered by no
// rectangle, so exactly one representative outside point needs separate
// evaluation (see EmptyCandidate).
func Space(rects []RectObject) geom.Rect {
	box := geom.EmptyRect()
	for _, r := range rects {
		box.ExpandToInclude(r.Rect.BL())
		box.ExpandToInclude(r.Rect.TR())
	}
	return box
}

// EmptyCandidate returns a point guaranteed to be covered by no rectangle
// (strictly outside the space), representing the empty covering set. An
// invalid space (no rectangles at all) yields the origin.
func EmptyCandidate(space geom.Rect) geom.Point {
	if !space.IsValid() {
		return geom.Point{}
	}
	w, h := space.Width(), space.Height()
	if w <= 0 {
		w = 1
	}
	if h <= 0 {
		h = 1
	}
	return geom.Point{X: space.MaxX + w + 1, Y: space.MaxY + h + 1}
}

// PointRepresentation computes F(p) exactly: the representation of the set
// of rectangles strictly covering p, every channel summed in the limbs the
// set certifies (agg.ExactSum) — the value every evaluator of a search
// forms, to the last ulp where a channel needs three limbs or more. O(n);
// used by tests and the empty candidate. The covering set's values must
// certify (attr.Dataset.Validate admits only such values); it panics
// otherwise.
func PointRepresentation(rects []RectObject, f *agg.Composite, p geom.Point) []float64 {
	var cbs []agg.Contrib
	for _, r := range rects {
		if r.Covers(p) {
			cbs = f.AppendContribs(r.Obj, cbs)
		}
	}
	sums, err := agg.ExactSum(f.Channels(), cbs)
	if err != nil {
		panic(err)
	}
	out := make([]float64, f.Dims())
	f.FinalizeExact(sums, out)
	return out
}
