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

// Geometry is the composite-free half of a pyramid: the master order of a
// dataset's anchors and the anchor-bin level over them. Under the
// top-right reduction every rectangle is its object's location shifted by
// (−a, −b) (Definition 5), so both depend on the object locations alone —
// not on the query and not on the composite. A dataset epoch has one
// Geometry, built by one sort (BuildGeometry) or folded from the previous
// epoch's (FoldGeometry), and every composite's pyramid on that epoch
// points to it (DESIGN.md §6).
//
// The master order is total: anchors by x, then y, then dataset index.
// The per-query build sorts its rectangles in the same order (buildTables:
// MinX, MinY, input index), and translation by (−a, −b) preserves every
// comparison the sort makes unless two distinct coordinates collapse onto
// one float, which binding a shape detects (shape.go). So a bound and an
// unbound search see the same master, ties included.
//
// A Geometry is immutable after construction, but for the memo of shape
// facts, which are composite-free too and so are shared by every
// composite's pyramid of the epoch.
type Geometry struct {
	ds    *attr.Dataset
	n     int
	order []int32   // master position -> dataset object index
	lvl   *satLevel // the anchor-bin level (levelGrid)

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

// sortAnchors sorts keys into the master order and writes the resulting
// permutation into perm (resized to len(keys)).
func sortAnchors(keys []anchorKey, perm []int32) []int32 {
	slices.SortFunc(keys, compareAnchors)
	perm = resizeInt32(perm, len(keys))
	for i := range keys {
		perm[i] = keys[i].i
	}
	return perm
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
	n := len(ds.Objects)
	keys := make([]anchorKey, n)
	for i := range ds.Objects {
		loc := ds.Objects[i].Loc
		keys[i] = anchorKey{loc.X, loc.Y, int32(i)}
	}
	g := &Geometry{ds: ds, n: n}
	g.order = sortAnchors(keys, nil)
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range keys {
		xs[i], ys[i] = keys[i].x, keys[i].y
	}
	g.raiseLevel(xs, ys)
	return g
}

// levelGrid returns the bin granularity of the level a fresh build raises
// over n anchors. The pyramid affords a finer grid than the per-query
// one: ring-scan work shrinks linearly with the bin width.
func levelGrid(n int) int {
	g := satGrid(n)
	for 2*g <= 256 && g*g < n {
		g *= 2
	}
	return g
}

// raiseLevel builds the level from scratch over the stored anchors xs/ys
// (master order).
func (g *Geometry) raiseLevel(xs, ys []float64) {
	g.lvl = &satLevel{}
	buildSATLevel(g.lvl, levelGrid(g.n), xs, ys)
}

// anchor returns the stored anchor (the object location) of master id.
func (g *Geometry) anchor(id int32) geom.Point { return g.ds.Objects[g.order[id]].Loc }

// anchorLess is the master comparator over stored anchors, without the
// index tie-break.
func anchorLess(a, b geom.Point) bool {
	return a.X < b.X || (a.X == b.X && a.Y < b.Y)
}

// inCanonicalOrder reports whether order lists ds's objects in the
// (x, y, index) order.
func inCanonicalOrder(ds *attr.Dataset, order []int32) bool {
	for i := 1; i < len(order); i++ {
		a, b := ds.Objects[order[i-1]].Loc, ds.Objects[order[i]].Loc
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
