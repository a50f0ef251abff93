package dssearch

import (
	"math/rand"
	"testing"

	"asrs/internal/agg"
	"asrs/internal/asp"
	"asrs/internal/attr"
	"asrs/internal/geom"
)

// TestSATNotUsableForUnsplittableChannels: composites whose
// contributions defeat both one limb and two (denormal tails on both
// signs) must keep the original master order, and with it raise no
// anchor-bin level.
func TestSATNotUsableForUnsplittableChannels(t *testing.T) {
	schema, err := attr.NewSchema(attr.Attribute{Name: "v", Kind: attr.Numeric})
	if err != nil {
		t.Fatal(err)
	}
	f, err := agg.New(schema, agg.Spec{Kind: agg.Sum, Attr: "v"})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	objs := make([]attr.Object, 50)
	rects := make([]asp.RectObject, 50)
	for i := range rects {
		x, y := rng.Float64()*10, rng.Float64()*10
		v := rng.NormFloat64()
		switch i % 8 {
		case 0:
			v = 5e-324
		case 3:
			v = -5e-324
		}
		objs[i] = attr.Object{Loc: geom.Point{X: x, Y: y}, Values: []attr.Value{{Num: v}}}
		rects[i] = asp.RectObject{Rect: geom.Rect{MinX: x - 1, MinY: y - 1, MaxX: x, MaxY: y}, Obj: &objs[i]}
	}
	q := asp.Query{F: f, Target: []float64{0}}
	s, err := NewSearcher(rects, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.tab.limbs.Exact {
		t.Fatalf("unsplittable composite must not sort: scales %v", s.tab.limbs.Scale)
	}
	for i := range rects {
		if s.rects[i].Obj != rects[i].Obj {
			t.Fatal("master order changed for an unsplittable composite")
		}
	}
	s.Solve()
	if len(s.tab.lvls) > 0 {
		t.Fatal("a search over an unsorted master built an anchor-bin level")
	}
}
