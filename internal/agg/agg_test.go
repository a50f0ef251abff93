package agg_test

import (
	"math"
	"testing"

	"asrs/internal/agg"
	"asrs/internal/asp"
	"asrs/internal/attr"
	"asrs/internal/geom"
)

// paperSchema reproduces the motivating example of Fig 1 / Examples 2–4:
// POIs with a category and a sales price.
func paperSchema(t *testing.T) *attr.Schema {
	t.Helper()
	s, err := attr.NewSchema(
		attr.Attribute{Name: "category", Kind: attr.Categorical,
			Domain: []string{"Apartment", "Supermarket", "Restaurant", "Bus stop"}},
		attr.Attribute{Name: "price", Kind: attr.Numeric},
	)
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	return s
}

// paperObjects places the objects of region r_q in Example 2: two
// apartments (prices 2 and 1.5), one supermarket, one restaurant, one bus
// stop, all inside the unit square.
func paperObjects() []attr.Object {
	obj := func(x, y float64, cat int, price float64) attr.Object {
		return attr.Object{Loc: geom.Point{X: x, Y: y},
			Values: []attr.Value{attr.CatValue(cat), attr.NumValue(price)}}
	}
	return []attr.Object{
		obj(0.2, 0.2, 0, 2),   // apartment, price 2
		obj(0.4, 0.6, 0, 1.5), // apartment, price 1.5
		obj(0.6, 0.3, 1, 0),   // supermarket
		obj(0.7, 0.7, 2, 0),   // restaurant
		obj(0.3, 0.8, 3, 0),   // bus stop
	}
}

func paperComposite(t *testing.T, s *attr.Schema) *agg.Composite {
	t.Helper()
	aptIdx := s.Index("category")
	f, err := agg.New(s,
		agg.Spec{Kind: agg.Distribution, Attr: "category"},
		agg.Spec{Kind: agg.Average, Attr: "price", Select: attr.SelectCategory(aptIdx, 0)},
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return f
}

// TestPaperExample3 checks F(r_q) = (2, 1, 1, 1, 1.75) from Example 3.
func TestPaperExample3(t *testing.T) {
	s := paperSchema(t)
	f := paperComposite(t, s)
	ds := &attr.Dataset{Schema: s, Objects: paperObjects()}
	got := f.Representation(ds, agg.OpenRect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1})
	want := []float64{2, 1, 1, 1, 1.75}
	if !vecEq(got, want, 1e-12) {
		t.Fatalf("F(r_q) = %v, want %v", got, want)
	}
}

// TestPaperExample4 checks the distances of Example 4:
// dist(F(r_q), F(r1)) = 1.15 and dist(F(r_q), F(r2)) = 4.15 under unit
// weights.
func TestPaperExample4(t *testing.T) {
	rq := []float64{2, 1, 1, 1, 1.75}
	r1 := []float64{3, 1, 1, 1, 1.6}
	r2 := []float64{2, 0, 2, 0, 2.9}
	w := agg.UnitWeights(5)
	if d := agg.Distance(agg.L1, r1, rq, w); math.Abs(d-1.15) > 1e-12 {
		t.Errorf("dist(rq, r1) = %g, want 1.15", d)
	}
	if d := agg.Distance(agg.L1, r2, rq, w); math.Abs(d-4.15) > 1e-12 {
		t.Errorf("dist(rq, r2) = %g, want 4.15", d)
	}
}

// TestPaperExample2Aggregators checks the three aggregator outputs of
// Example 2 individually: fD = (2,1,1,1), fA = 1.75, fS = 3.5.
func TestPaperExample2Aggregators(t *testing.T) {
	s := paperSchema(t)
	ds := &attr.Dataset{Schema: s, Objects: paperObjects()}
	region := agg.OpenRect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	aptSel := attr.SelectCategory(s.Index("category"), 0)

	fd := agg.MustNew(s, agg.Spec{Kind: agg.Distribution, Attr: "category"})
	if got := fd.Representation(ds, region); !vecEq(got, []float64{2, 1, 1, 1}, 0) {
		t.Errorf("fD = %v, want [2 1 1 1]", got)
	}
	fa := agg.MustNew(s, agg.Spec{Kind: agg.Average, Attr: "price", Select: aptSel})
	if got := fa.Representation(ds, region); !vecEq(got, []float64{1.75}, 1e-12) {
		t.Errorf("fA = %v, want [1.75]", got)
	}
	fs := agg.MustNew(s, agg.Spec{Kind: agg.Sum, Attr: "price", Select: aptSel})
	if got := fs.Representation(ds, region); !vecEq(got, []float64{3.5}, 1e-12) {
		t.Errorf("fS = %v, want [3.5]", got)
	}
}

func TestNewValidation(t *testing.T) {
	s := paperSchema(t)
	cases := []struct {
		name  string
		specs []agg.Spec
	}{
		{"no components", nil},
		{"unknown attribute", []agg.Spec{{Kind: agg.Distribution, Attr: "nope"}}},
		{"fD on numeric", []agg.Spec{{Kind: agg.Distribution, Attr: "price"}}},
		{"fA on categorical", []agg.Spec{{Kind: agg.Average, Attr: "category"}}},
		{"fS on categorical", []agg.Spec{{Kind: agg.Sum, Attr: "category"}}},
		{"bad kind", []agg.Spec{{Kind: agg.Kind(99), Attr: "price"}}},
	}
	for _, c := range cases {
		if _, err := agg.New(s, c.specs...); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	if _, err := agg.New(nil, agg.Spec{Kind: agg.Sum, Attr: "price"}); err == nil {
		t.Error("nil schema: expected error")
	}
}

// setRep is the representation of a set of objects, each one's
// rectangle covering the origin: its covering set, summed as a search
// sums one (asp.PointRepresentation).
func setRep(f *agg.Composite, objs []attr.Object) []float64 {
	rects := make([]asp.RectObject, len(objs))
	for i := range objs {
		rects[i] = asp.RectObject{Rect: geom.Rect{MinX: -1, MinY: -1, MaxX: 1, MaxY: 1}, Obj: &objs[i]}
	}
	return asp.PointRepresentation(rects, f, geom.Point{})
}

// setChannels is the exact channel sums of a set of objects (ExactSum).
func setChannels(t *testing.T, f *agg.Composite, objs []attr.Object) []float64 {
	t.Helper()
	var cbs []agg.Contrib
	for i := range objs {
		cbs = f.AppendContribs(&objs[i], cbs)
	}
	ch, err := agg.ExactSum(f.Channels(), cbs)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

// TestSetRepresentation: the representation of Example 2's objects, of
// all but the 1.5-priced apartment, and of none.
func TestSetRepresentation(t *testing.T) {
	s := paperSchema(t)
	f := paperComposite(t, s)
	objs := paperObjects()
	if rep := setRep(f, objs); !vecEq(rep, []float64{2, 1, 1, 1, 1.75}, 1e-12) {
		t.Fatalf("every object: %v", rep)
	}
	// Without the 1.5-priced apartment the distribution drops to
	// (1,1,1,1) and the average becomes 2.
	rest := append([]attr.Object{objs[0]}, objs[2:]...)
	if rep := setRep(f, rest); !vecEq(rep, []float64{1, 1, 1, 1, 2}, 1e-12) {
		t.Fatalf("without the second apartment: %v", rep)
	}
	if rep := setRep(f, nil); !vecEq(rep, []float64{0, 0, 0, 0, 0}, 0) {
		t.Fatalf("no object: %v", rep)
	}
}

// TestFinalizeBoundsSoundness verifies Lemma 4/5 style soundness: for
// every subset S with full ⊆ S ⊆ full∪partial, the exact representation of
// S lies within [lo, hi].
func TestFinalizeBoundsSoundness(t *testing.T) {
	s := paperSchema(t)
	f := paperComposite(t, s)
	objs := paperObjects()
	fullSet := objs[:2]
	partialSet := objs[2:]

	mmMin, mmMax := f.InfMM()
	var mbuf []agg.MMContrib
	for i := range partialSet {
		mbuf = f.AppendMM(&partialSet[i], mbuf[:0])
		for _, m := range mbuf {
			if m.V < mmMin[m.Slot] {
				mmMin[m.Slot] = m.V
			}
			if m.V > mmMax[m.Slot] {
				mmMax[m.Slot] = m.V
			}
		}
	}
	lo := make([]float64, f.Dims())
	hi := make([]float64, f.Dims())
	f.FinalizeBounds(setChannels(t, f, fullSet), setChannels(t, f, partialSet), mmMin, mmMax, lo, hi)

	for mask := 0; mask < 1<<len(partialSet); mask++ {
		set := append([]attr.Object(nil), fullSet...)
		for i := range partialSet {
			if mask&(1<<i) != 0 {
				set = append(set, partialSet[i])
			}
		}
		rep := setRep(f, set)
		for d := 0; d < f.Dims(); d++ {
			if rep[d] < lo[d]-1e-9 || rep[d] > hi[d]+1e-9 {
				t.Fatalf("mask %b dim %d: rep %g outside [%g, %g]", mask, d, rep[d], lo[d], hi[d])
			}
		}
	}
}

func vecEq(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}
