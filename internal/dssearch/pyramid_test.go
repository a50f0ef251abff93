package dssearch

import (
	"math"
	"math/rand"
	"testing"

	"asrs/internal/agg"
	"asrs/internal/asp"
	"asrs/internal/attr"
	"asrs/internal/geom"
)

// pyramidDataset builds a dataset over a two-attribute schema whose
// numeric values are drawn from the given generator, plus the composite
// under test (fD + fC + fS or fS + fA depending on withMM).
func pyramidDataset(t *testing.T, rng *rand.Rand, n int, num func() float64, withMM bool) (*attr.Dataset, *agg.Composite) {
	t.Helper()
	schema, err := attr.NewSchema(
		attr.Attribute{Name: "cat", Kind: attr.Categorical, Domain: []string{"a", "b", "c"}},
		attr.Attribute{Name: "val", Kind: attr.Numeric},
	)
	if err != nil {
		t.Fatal(err)
	}
	var specs []agg.Spec
	if withMM {
		specs = []agg.Spec{
			{Kind: agg.Sum, Attr: "val"},
			{Kind: agg.Average, Attr: "val"},
		}
	} else {
		specs = []agg.Spec{
			{Kind: agg.Distribution, Attr: "cat"},
			{Kind: agg.Count},
			{Kind: agg.Sum, Attr: "val"},
		}
	}
	f, err := agg.New(schema, specs...)
	if err != nil {
		t.Fatal(err)
	}
	objs := make([]attr.Object, n)
	for i := range objs {
		x := rng.Float64() * 100
		y := rng.Float64() * 100
		if rng.Intn(3) == 0 {
			// Lattice snap: duplicate locations and edge collisions.
			x = float64(rng.Intn(20)) * 5
			y = float64(rng.Intn(20)) * 5
		}
		objs[i] = attr.Object{
			Loc:    geom.Point{X: x, Y: y},
			Values: []attr.Value{{Cat: rng.Intn(3)}, {Num: num()}},
		}
	}
	return &attr.Dataset{Schema: schema, Objects: objs}, f
}

// solvePyr runs SolveASRS with or without the pyramid and returns the
// answer.
func solvePyr(t *testing.T, ds *attr.Dataset, f *agg.Composite, a, b float64, target []float64,
	p *Pyramid) (geom.Rect, asp.Result) {
	t.Helper()
	q := asp.Query{F: f, Target: target}
	opt := Options{Pyramid: p}
	region, res, _, err := SolveASRS(ds, a, b, q, nil, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	return region, res
}

// TestPyramidAnswersBitIdentical is the tentpole property test: for
// integer-exact, dyadic-real, decimal-grid (two-limb) and min/max
// composites, over query extents including sub-ulp slivers (a below one
// ulp of the coordinates, producing zero-extent rectangles) and
// extents that dwarf the space, pyramid-bound answers — region, point,
// distance and representation — are bit-identical to the classic
// per-query build.
func TestPyramidAnswersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	kinds := []struct {
		name   string
		num    func() float64
		withMM bool
	}{
		{"integer", func() float64 { return float64(rng.Intn(11) - 5) }, false},
		{"dyadic", func() float64 { return float64(rng.Intn(41)) * 0.25 }, false},
		{"decimal", func() float64 { return 0.1 * float64(1+rng.Intn(99)) }, false},
		{"minmax", func() float64 { return float64(rng.Intn(2001)) * 0.5 }, true},
	}
	for _, kind := range kinds {
		ds, f := pyramidDataset(t, rng, 150+rng.Intn(250), kind.num, kind.withMM)
		p, err := BuildPyramid(ds, f)
		if err != nil {
			t.Fatalf("%s: BuildPyramid: %v", kind.name, err)
		}
		target := make([]float64, f.Dims())
		for i := range target {
			target[i] = float64(2 + i)
		}
		extents := [][2]float64{
			{9, 8},
			{5, 5},
			{0.37, 0.91},
			{1e-13, 1e-13}, // sub-ulp: zero-extent rectangles
			{400, 400},     // dwarfs the space
		}
		for _, ab := range extents {
			a, b := ab[0], ab[1]
			wantRegion, want := solvePyr(t, ds, f, a, b, target, nil)
			gotRegion, got := solvePyr(t, ds, f, a, b, target, p)
			if gotRegion != wantRegion || got.Dist != want.Dist || got.Point != want.Point {
				t.Fatalf("%s a=%g b=%g: pyramid answer %v@%v (region %v), want %v@%v (region %v)",
					kind.name, a, b, got.Dist, got.Point, gotRegion, want.Dist, want.Point, wantRegion)
			}
			for i := range want.Rep {
				if math.Float64bits(got.Rep[i]) != math.Float64bits(want.Rep[i]) {
					t.Fatalf("%s a=%g b=%g: rep[%d] %v != %v",
						kind.name, a, b, i, got.Rep[i], want.Rep[i])
				}
			}
		}
	}
}

// TestPyramidBindRejections: binds that cannot guarantee bit-identity
// must fall back, never mis-bind — another dataset holding equal objects
// (the pyramid's order and contributions describe its own object array),
// another composite of the same shape.
func TestPyramidBindRejections(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ds, f := pyramidDataset(t, rng, 80, func() float64 { return float64(rng.Intn(5)) }, false)
	p, err := BuildPyramid(ds, f)
	if err != nil {
		t.Fatal(err)
	}
	q := asp.Query{F: f, Target: make([]float64, f.Dims())}
	bound := func(ds *attr.Dataset, q asp.Query) bool {
		s, err := NewSearcher(ds, 3, 4, q, Options{Pyramid: p})
		if err != nil {
			t.Fatal(err)
		}
		return s.boundTo(p)
	}
	if !bound(ds, q) {
		t.Fatal("the pyramid's own dataset and composite should bind")
	}
	foreign := &attr.Dataset{Schema: ds.Schema, Objects: append([]attr.Object(nil), ds.Objects[:len(ds.Objects)-1]...)}
	if bound(foreign, q) {
		t.Fatal("a foreign dataset must not bind the pyramid")
	}
	_, f2 := pyramidDataset(t, rng, 1, func() float64 { return 0 }, false)
	if bound(ds, asp.Query{F: f2, Target: make([]float64, f2.Dims())}) {
		t.Fatal("another composite must not bind the pyramid")
	}
}

// TestPyramidSlabReuse: searches that read a given pyramid and searches
// that build their own recycle the free list's slabs in turn, and reusing
// the retained scratch changes no answer.
func TestPyramidSlabReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ds, f := pyramidDataset(t, rng, 120, func() float64 { return float64(rng.Intn(9)) }, false)
	p, err := BuildPyramid(ds, f)
	if err != nil {
		t.Fatal(err)
	}
	target := make([]float64, f.Dims())
	target[0] = 3
	q := asp.Query{F: f, Target: target}

	_, want, _, err := SolveASRS(ds, 6, 5, q, nil, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		// Alternate given and one-shot pyramids.
		var opt Options
		if round%2 == 0 {
			opt.Pyramid = p
		}
		_, got, _, err := SolveASRS(ds, 6, 5, q, nil, nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got.Dist != want.Dist || got.Point != want.Point {
			t.Fatalf("round %d: %v@%v, want %v@%v", round, got.Dist, got.Point, want.Dist, want.Point)
		}
	}
}
