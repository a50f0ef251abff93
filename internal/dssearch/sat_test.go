package dssearch

import (
	"math"
	"math/rand"
	"testing"

	"asrs/internal/agg"
	"asrs/internal/asp"
	"asrs/internal/attr"
	"asrs/internal/geom"
	"asrs/internal/sweep"
)

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

// spreadValue draws a full-mantissa real between 1e-12 and 1e12 in
// magnitude: a few dozen of them sum in a chain of three limbs or more.
func spreadValue(rng *rand.Rand) float64 {
	return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(25)-12))
}

// chained reports whether some channel of l sums in three limbs or more:
// more extra limbs than channels that have one.
func chained(l *agg.Limbs) bool {
	extra := 0
	for _, lo := range l.Lo {
		if lo >= 0 {
			extra++
		}
	}
	return l.Eff()-len(l.Lo) > extra
}

// TestThreeLimbMasterSorts: a composite whose sums take a chain of three
// limbs gets the sorted master like every other, and its search answers
// the sweep baseline's distance bit for bit.
func TestThreeLimbMasterSorts(t *testing.T) {
	schema, err := attr.NewSchema(attr.Attribute{Name: "v", Kind: attr.Numeric})
	if err != nil {
		t.Fatal(err)
	}
	f, err := agg.New(schema, agg.Spec{Kind: agg.Sum, Attr: "v"}, agg.Spec{Kind: agg.Average, Attr: "v"})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 4; trial++ {
		objs := make([]attr.Object, 120)
		for i := range objs {
			x, y := rng.Float64()*10, rng.Float64()*10
			objs[i] = attr.Object{Loc: geom.Point{X: x, Y: y}, Values: []attr.Value{{Num: spreadValue(rng)}}}
		}
		ds := &attr.Dataset{Objects: objs}
		q := asp.Query{F: f, Target: []float64{spreadValue(rng), spreadValue(rng)}}
		s, err := NewShapeSearcher(t, ds, 1, 1, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !chained(&s.core.limbs) {
			t.Fatalf("trial %d: limbs %v, lo %v: no chain of three", trial, s.core.limbs.Scale, s.core.limbs.Lo)
		}
		order := newGeometry(ds).order // the one-shot pyramid's master
		if !inCanonicalOrder(s.pts, order) {
			t.Fatalf("trial %d: the master is not sorted by anchor", trial)
		}
		for id, oi := range order {
			if s.pts[id] != objs[oi].Loc {
				t.Fatalf("trial %d: master id %d is anchored at %v, its object at %v", trial, id, s.pts[id], objs[oi].Loc)
			}
		}
		got := s.Solve()
		rects, err := asp.Reduce(ds, 1, 1, asp.AnchorTR)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := sweep.New(rects, q)
		if err != nil {
			t.Fatal(err)
		}
		if want := sw.Solve(); math.Float64bits(got.Dist) != math.Float64bits(want.Dist) {
			t.Fatalf("trial %d: distance %v, the sweep's %v", trial, got.Dist, want.Dist)
		}
	}
}
