package dssearch

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"asrs/internal/attr"
	"asrs/internal/geom"
)

// Geometry is the composite-free half of a pyramid: a dataset's anchors
// in the master order and the anchor-bin level over them. Under the
// top-right reduction every rectangle is its object's location shifted by
// (−a, −b) (Definition 5), so both depend on the object locations alone —
// not on the query and not on the composite. A dataset epoch has one
// Geometry, built by one sort (BuildGeometry) or folded from the previous
// epoch's (FoldGeometry), and every composite's pyramid on that epoch
// points to it (DESIGN.md §6).
//
// The master order is total: anchors by x, then y, then dataset index.
// A search reads rectangle id as geom.RectFromTR(pts[id], a, b): the
// anchors are the master, and no shape is materialized (shape.go). A
// one-shot search lays out the same order in its slab (tables.layOut),
// so a bound and an unbound search see the same master, ties included.
//
// A Geometry is immutable after construction, but for the memo of shape
// facts, which are composite-free too and so are shared by every
// composite's pyramid of the epoch.
type Geometry struct {
	ds    *attr.Dataset
	n     int
	order []int32      // master position -> dataset object index
	pts   []geom.Point // master position -> anchor (the object's location); derived, never stored
	lvl   *satLevel    // the anchor-bin level (levelGrid)

	// Shape facts remembered per (a, b) (shape.go): the geometry's only
	// mutable state. An epoch's fold is a new geometry with an empty memo.
	factsMu      sync.Mutex
	facts        map[shapeKey]shapeFacts
	factsDerived int // derivations so far (tests)
}

// anchorKey is one anchor with its input index: a sort key of the master
// order.
type anchorKey struct {
	x, y float64
	i    int32
}

// compareAnchors is the master order: x, then y, then input index.
func compareAnchors(a, b anchorKey) int {
	switch {
	case a.x < b.x:
		return -1
	case a.x > b.x:
		return 1
	case a.y < b.y:
		return -1
	case a.y > b.y:
		return 1
	}
	return cmp.Compare(a.i, b.i)
}

// BuildGeometry sorts a dataset's anchors once and raises the anchor-bin
// level over them. The dataset must not be mutated afterwards while the
// geometry serves it.
func BuildGeometry(ds *attr.Dataset) (*Geometry, error) {
	if ds == nil {
		return nil, fmt.Errorf("dssearch: geometry requires a dataset")
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return newGeometry(ds), nil
}

// newGeometry is BuildGeometry over a validated dataset.
func newGeometry(ds *attr.Dataset) *Geometry {
	var t tables
	t.layAnchors(ds.Objects)
	g := &Geometry{ds: ds, n: len(ds.Objects), order: t.order, pts: t.pts}
	g.raiseLevel()
	return g
}

// levelGrid returns the bin granularity of the level a fresh build raises
// over n anchors: ⌊√n⌋ clamped to [8, 128], then doubled while g² < n,
// up to 256 bins a side.
func levelGrid(n int) int {
	g := min(max(int(math.Sqrt(float64(n))), 8), 128)
	for 2*g <= 256 && g*g < n {
		g *= 2
	}
	return g
}

// raiseLevel builds the level from scratch over the anchors.
func (g *Geometry) raiseLevel() {
	g.lvl = &satLevel{}
	buildSATLevel(g.lvl, levelGrid(g.n), g.pts)
}

// anchorLess is the master comparator over stored anchors, without the
// index tie-break.
func anchorLess(a, b geom.Point) bool {
	return a.X < b.X || (a.X == b.X && a.Y < b.Y)
}

// inCanonicalOrder reports whether order lists the anchors pts (in
// order's order) in the (x, y, index) order.
func inCanonicalOrder(pts []geom.Point, order []int32) bool {
	for i := 1; i < len(order); i++ {
		a, b := pts[i-1], pts[i]
		if compareAnchors(anchorKey{a.X, a.Y, order[i-1]}, anchorKey{b.X, b.Y, order[i]}) > 0 {
			return false
		}
	}
	return true
}

// sameAs reports whether o describes g's dataset with the same order and
// the same level, bit for bit.
func (g *Geometry) sameAs(o *Geometry) bool {
	return o != nil && g.ds == o.ds && slices.Equal(g.order, o.order) && g.lvl.equal(o.lvl)
}

// equal reports whether two levels are the same bins over the same grid.
func (l *satLevel) equal(o *satLevel) bool {
	bits := func(l *satLevel) [4]uint64 {
		return [4]uint64{math.Float64bits(l.bw), math.Float64bits(l.bh), math.Float64bits(l.bx0), math.Float64bits(l.by0)}
	}
	return l.gx == o.gx && l.gy == o.gy && bits(l) == bits(o) &&
		slices.Equal(l.binStart, o.binStart) && slices.Equal(l.binIds, o.binIds) &&
		slices.Equal(l.xMaxUpTo, o.xMaxUpTo) && slices.Equal(l.xMinFrom, o.xMinFrom) &&
		slices.Equal(l.yMaxUpTo, o.yMaxUpTo) && slices.Equal(l.yMinFrom, o.yMinFrom)
}
