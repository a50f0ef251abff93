package dssearch

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"asrs/internal/attr"
	"asrs/internal/geom"
)

// Geometry is the composite-free half of a pyramid: a dataset's anchors
// in the master order. Under the top-right reduction every rectangle is
// its object's location shifted by (−a, −b) (Definition 5), so the order
// depends on the object locations alone — not on the query and not on
// the composite. A dataset epoch has one Geometry, built by one sort
// (BuildGeometry) or folded from the previous epoch's (FoldGeometry), and
// every composite's pyramid on that epoch points to it (DESIGN.md §6).
//
// The master order is total: anchors by x, then y, then dataset index.
// A search reads rectangle id as geom.RectFromTR(pts[id], a, b): the
// anchors are the master, and no shape is materialized (shape.go). A
// search given no pyramid sorts its dataset into a geometry of its own
// (newGeometry), so every search sees the same master, ties included.
//
// A Geometry is immutable after construction.
type Geometry struct {
	ds    *attr.Dataset
	n     int
	order []int32      // master position -> dataset object index
	pts   []geom.Point // master position -> anchor (the object's location); derived, never stored

	// bounds is the dataset's bounding box, ds.Bounds() bit for bit: the
	// objects expanded into it in dataset order (expandBounds) — by a
	// fold from the base's box through the appended objects only. A
	// shape's space is read off it (reductionSpace).
	bounds geom.Rect
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

// orderedBits maps a coordinate to an unsigned integer that orders as
// the coordinate does under compareAnchors: −0 is taken as +0 (the two
// compare equal), a negative float's bits are inverted and a positive
// float's get the sign bit set.
func orderedBits(v float64) uint64 {
	b := math.Float64bits(v)
	if b == 1<<63 {
		b = 0
	}
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// anchorSort sets order[i] to the input index of the i-th of objs in the
// master order (order has len(objs) slots) and reports whether objs were
// in that order already, which is not sorted again. It is a stable LSD
// radix sort in 8-bit digits, over the digits of y first and then those
// of x, from the input order — so x decides, then y, then the input
// index, which is compareAnchors' order. Each anchor's key (orderedBits
// of y through the y passes, of x, read in between by input index,
// through the x passes) moves with its input index. The digit histograms
// of all sixteen passes are counted in one pass over the objects, and a
// pass whose digit is the same for every key, which would keep the order
// as it is, is skipped.
func anchorSort(objs []attr.Object, order []int32) (sorted bool) {
	n := len(objs)
	sorted = true
	for i := 1; i < n && sorted; i++ {
		sorted = !anchorLess(objs[i].Loc, objs[i-1].Loc)
	}
	if sorted {
		for i := range order {
			order[i] = int32(i)
		}
		return true
	}
	// The keys and their input indexes, each beside the passes' second
	// buffer, and the passes' digit counts, then their slots.
	allKeys, allIdx := make([]uint64, 2*n), make([]int32, 2*n)
	hist := new([16][256]int32)
	keys, idx, dkeys, didx := allKeys[:n], allIdx[:n], allKeys[n:], allIdx[n:]
	for i := range objs {
		y, x := orderedBits(objs[i].Loc.Y), orderedBits(objs[i].Loc.X)
		keys[i], idx[i] = y, int32(i)
		for d := 0; d < 8; d++ {
			hist[d][byte(y>>(8*d))]++
			hist[8+d][byte(x>>(8*d))]++
		}
	}
	for p := range hist {
		if p == 8 {
			for j, i := range idx {
				keys[j] = orderedBits(objs[i].Loc.X)
			}
		}
		h, shift := &hist[p], uint(p&7)*8
		if h[byte(keys[0]>>shift)] == int32(n) {
			continue
		}
		at := int32(0)
		for d, c := range h {
			h[d] = at
			at += c
		}
		for j, k := range keys {
			d := byte(k >> shift)
			dkeys[h[d]], didx[h[d]] = k, idx[j]
			h[d]++
		}
		keys, dkeys = dkeys, keys
		idx, didx = didx, idx
	}
	copy(order, idx)
	return false
}

// BuildGeometry sorts a dataset's anchors once. The dataset must not be
// mutated afterwards while the geometry serves it.
func BuildGeometry(ds *attr.Dataset) (*Geometry, error) {
	if ds == nil {
		return nil, fmt.Errorf("dssearch: geometry requires a dataset")
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return newGeometry(ds), nil
}

// newGeometry is BuildGeometry without the validation: a search given no
// pyramid builds its one-shot geometry with it, and its flatten refuses
// what does not certify.
func newGeometry(ds *attr.Dataset) *Geometry {
	objs := ds.Objects
	order := make([]int32, len(objs))
	anchorSort(objs, order)
	pts := make([]geom.Point, len(objs))
	for id, oi := range order {
		pts[id] = objs[oi].Loc
	}
	return &Geometry{ds: ds, n: len(objs), order: order, pts: pts, bounds: expandBounds(geom.EmptyRect(), objs)}
}

// expandBounds returns r expanded to include every object's location, in
// the objects' order: what geom.BoundingBox does from the empty box,
// which is what ds.Bounds() returns. Which of two equal extremes ends up
// in the box — −0 or +0 — is the first one met.
func expandBounds(r geom.Rect, objs []attr.Object) geom.Rect {
	for i := range objs {
		r.ExpandToInclude(objs[i].Loc)
	}
	return r
}

// Bounds returns the bounding box of the geometry's dataset, ds.Bounds()
// bit for bit, computed once per epoch.
func (g *Geometry) Bounds() geom.Rect { return g.bounds }

// Order returns the master order: master position -> dataset object
// index. The slice aliases the geometry: treat it as read-only.
func (g *Geometry) Order() []int32 { return g.order }

// anchorLess is the master comparator over stored anchors, without the
// index tie-break.
func anchorLess(a, b geom.Point) bool {
	return a.X < b.X || (a.X == b.X && a.Y < b.Y)
}

// sameAs reports whether o describes g's dataset in the same order.
func (g *Geometry) sameAs(o *Geometry) bool {
	return o != nil && g.ds == o.ds && slices.Equal(g.order, o.order)
}
