package dssearch_test

import (
	"math"
	"math/rand"
	"testing"

	"asrs/internal/agg"
	"asrs/internal/asp"
	"asrs/internal/attr"
	"asrs/internal/dataset"
	"asrs/internal/dssearch"
	"asrs/internal/geom"
	"asrs/internal/sweep"
)

// randomQuery builds a random composite aggregator, target and weights
// over dataset.Random's schema.
func randomQuery(t testing.TB, ds *attr.Dataset, rng *rand.Rand) asp.Query {
	t.Helper()
	all := []agg.Spec{
		{Kind: agg.Distribution, Attr: "cat"},
		{Kind: agg.Average, Attr: "val"},
		{Kind: agg.Sum, Attr: "val"},
	}
	var chosen []agg.Spec
	for _, s := range all {
		if rng.Intn(2) == 0 {
			chosen = append(chosen, s)
		}
	}
	if len(chosen) == 0 {
		chosen = all[:1]
	}
	f, err := agg.New(ds.Schema, chosen...)
	if err != nil {
		t.Fatal(err)
	}
	target := make([]float64, f.Dims())
	w := make([]float64, f.Dims())
	for i := range target {
		target[i] = rng.NormFloat64() * 3
		w[i] = 0.1 + rng.Float64()
	}
	return asp.Query{F: f, Target: target, W: w}
}

// TestDSSearchMatchesSweep is the central integration test: on random
// instances DS-Search must return exactly the sweep baseline's optimum.
func TestDSSearchMatchesSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 80; trial++ {
		n := 1 + rng.Intn(60)
		ds := dataset.Random(n, 50, rng.Int63())
		a := 2 + rng.Float64()*15
		b := 2 + rng.Float64()*15
		rects, err := asp.Reduce(ds, a, b, asp.AnchorTR)
		if err != nil {
			t.Fatal(err)
		}
		q := randomQuery(t, ds, rng)

		sw, _ := sweep.New(rects, q)
		want := sw.Solve()

		s, err := dssearch.NewShapeSearcher(t, ds, a, b, q, dssearch.Options{NCol: 10, NRow: 10})
		if err != nil {
			t.Fatal(err)
		}
		got := s.Solve()
		if math.Abs(got.Dist-want.Dist) > 1e-9 {
			t.Fatalf("trial %d (n=%d, a=%g, b=%g): DS-Search %g vs sweep %g\nstats: %+v",
				trial, n, a, b, got.Dist, want.Dist, s.Stats)
		}
		// The returned point must achieve the reported distance.
		rep := asp.PointRepresentation(rects, q.F, got.Point)
		if d := q.Distance(rep); math.Abs(d-got.Dist) > 1e-9 {
			t.Fatalf("trial %d: reported %g but point evaluates to %g", trial, got.Dist, d)
		}
	}
}

// TestDSSearchGranularities: the answer must not depend on the grid
// granularity.
func TestDSSearchGranularities(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds := dataset.Random(40, 60, 99)
	rects, _ := asp.Reduce(ds, 9, 7, asp.AnchorTR)
	q := randomQuery(t, ds, rng)
	sw, _ := sweep.New(rects, q)
	want := sw.Solve().Dist
	for _, g := range []int{2, 5, 10, 30, 50} {
		s, err := dssearch.NewShapeSearcher(t, ds, 9, 7, q, dssearch.Options{NCol: g, NRow: g})
		if err != nil {
			t.Fatal(err)
		}
		got := s.Solve()
		if math.Abs(got.Dist-want) > 1e-9 {
			t.Fatalf("granularity %d: %g vs %g", g, got.Dist, want)
		}
	}
}

// TestApproximateGuarantee: the (1+δ) variant must return a region within
// the guarantee, for several δ.
func TestApproximateGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		ds := dataset.Random(1+rng.Intn(50), 50, rng.Int63())
		rects, _ := asp.Reduce(ds, 8, 8, asp.AnchorTR)
		q := randomQuery(t, ds, rng)
		sw, _ := sweep.New(rects, q)
		opt := sw.Solve().Dist
		for _, delta := range []float64{0.1, 0.2, 0.4} {
			s, err := dssearch.NewShapeSearcher(t, ds, 8, 8, q, dssearch.Options{NCol: 10, NRow: 10, Delta: delta})
			if err != nil {
				t.Fatal(err)
			}
			got := s.Solve()
			if got.Dist < opt-1e-9 {
				t.Fatalf("approx found better than optimum: %g < %g", got.Dist, opt)
			}
			if got.Dist > (1+delta)*opt+1e-9 {
				t.Fatalf("trial %d δ=%g: %g violates (1+δ)·%g", trial, delta, got.Dist, opt)
			}
		}
	}
}

// TestSolveASRSRoundTrip: the front door returns the region whose
// representation matches the reported one, and the distance agrees with
// directly aggregating the region.
func TestSolveASRSRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ds := dataset.Random(50, 40, 7)
	q := randomQuery(t, ds, rng)
	a, b := 6.0, 5.0
	region, res, stats, err := dssearch.SolveASRS(ds, a, b, q, nil, nil, dssearch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if w, h := region.Width(), region.Height(); math.Abs(w-a) > 1e-9 || math.Abs(h-b) > 1e-9 {
		t.Fatalf("region size %gx%g, want %gx%g", w, h, a, b)
	}
	rep := q.F.Representation(ds, agg.OpenRect{MinX: region.MinX, MinY: region.MinY, MaxX: region.MaxX, MaxY: region.MaxY})
	if d := q.Distance(rep); math.Abs(d-res.Dist) > 1e-9 {
		t.Fatalf("region distance %g, reported %g", d, res.Dist)
	}
	if stats.Discretizations == 0 && stats.MiniSweeps == 0 {
		t.Fatal("no work recorded")
	}
}

// TestAnchorsAgree: the optimum distance is independent of the reduction
// anchor. DS-Search answers the top-right reduction, the one every search
// makes; the sweep answers the reductions of the other four anchors.
func TestAnchorsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ds := dataset.Random(35, 40, 17)
	q := randomQuery(t, ds, rng)
	s, err := dssearch.NewShapeSearcher(t, ds, 7, 6, q, dssearch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dists := []float64{s.Solve().Dist}
	for _, an := range []asp.Anchor{asp.AnchorTL, asp.AnchorBR, asp.AnchorBL, asp.AnchorCenter} {
		rects, err := asp.Reduce(ds, 7, 6, an)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := sweep.New(rects, q)
		if err != nil {
			t.Fatal(err)
		}
		dists = append(dists, sw.Solve().Dist)
	}
	for i := 1; i < len(dists); i++ {
		if math.Abs(dists[i]-dists[0]) > 1e-9 {
			t.Fatalf("anchor %d disagrees: %v", i, dists)
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	ds := dataset.Random(5, 10, 8)
	f := agg.MustNew(ds.Schema, agg.Spec{Kind: agg.Sum, Attr: "val"})
	q := asp.Query{F: f, Target: []float64{0}}
	if _, err := dssearch.NewSearcher(ds, 2, 2, q, dssearch.Options{Delta: -1}); err == nil {
		t.Error("negative delta accepted")
	}
	if _, err := dssearch.NewSearcher(ds, 2, 2, q, dssearch.Options{NCol: 1, NRow: 5}); err == nil {
		t.Error("1-column grid accepted")
	}
	if _, err := dssearch.NewSearcher(ds, 2, 2, asp.Query{F: f, Target: []float64{0, 1}}, dssearch.Options{}); err == nil {
		t.Error("bad query accepted")
	}
}

// TestExtentMustBeFinite: an extent that is not positive and below
// MaxExtent is refused by every constructor, alone or beside a valid one.
// An infinite one used to answer: a region [-Inf,NaN] wide at a finite
// distance.
func TestExtentMustBeFinite(t *testing.T) {
	ds := dataset.Random(20, 10, 8)
	f := agg.MustNew(ds.Schema, agg.Spec{Kind: agg.Sum, Attr: "val"})
	q := asp.Query{F: f, Target: []float64{0}}
	inf, nan := math.Inf(1), math.NaN()
	for _, ab := range [][2]float64{{inf, 2}, {2, inf}, {inf, inf}, {nan, 2}, {2, nan}, {-inf, 2}, {0, 2}, {2, -1},
		{dssearch.MaxExtent, 2}, {2, dssearch.MaxExtent}, {math.MaxFloat64, 2}} {
		a, b := ab[0], ab[1]
		if dssearch.CheckExtent(a, b) == nil {
			t.Errorf("%g x %g: CheckExtent accepts it", a, b)
		}
		if _, err := dssearch.NewSearcher(ds, a, b, q, dssearch.Options{}); err == nil {
			t.Errorf("%g x %g: NewRegionSearcher accepts it", a, b)
		}
		if region, res, _, err := dssearch.SolveASRS(ds, a, b, q, nil, nil, dssearch.Options{}); err == nil {
			t.Errorf("%g x %g: answered %v at distance %v", a, b, region, res.Dist)
		}
	}
	if err := dssearch.CheckExtent(math.Nextafter(dssearch.MaxExtent, 0), math.SmallestNonzeroFloat64); err != nil {
		t.Errorf("a finite positive extent is refused: %v", err)
	}
}

func TestEmptyAndTinyInstances(t *testing.T) {
	ds := dataset.Random(5, 10, 12)
	f := agg.MustNew(ds.Schema, agg.Spec{Kind: agg.Distribution, Attr: "cat"})
	q := asp.Query{F: f, Target: []float64{0, 0, 0}}

	s, err := dssearch.NewShapeSearcher(t, &attr.Dataset{Schema: ds.Schema}, 3, 3, q, dssearch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res := s.Solve(); res.Dist != 0 {
		t.Fatalf("empty instance: dist %g, want 0", res.Dist)
	}

	one := dataset.Random(1, 10, 13)
	rects, _ := asp.Reduce(one, 3, 3, asp.AnchorTR)
	q2 := randomQuery(t, one, rand.New(rand.NewSource(14)))
	s2, _ := dssearch.NewShapeSearcher(t, one, 3, 3, q2, dssearch.Options{})
	got := s2.Solve()
	sw, _ := sweep.New(rects, q2)
	want := sw.Solve()
	if math.Abs(got.Dist-want.Dist) > 1e-9 {
		t.Fatalf("single object: %g vs %g", got.Dist, want.Dist)
	}
}

// TestCoincidentObjects: fully degenerate arrangement (all objects at one
// point, all rectangles one). Its 8 rectangles are under the terminal
// rule's cutoff, so the first space is swept, and the sweep must produce
// the exact answer.
func TestCoincidentObjects(t *testing.T) {
	ds := dataset.Random(8, 20, 15)
	for i := range ds.Objects {
		ds.Objects[i].Loc = geom.Point{X: 5, Y: 5}
	}
	rects, _ := asp.Reduce(ds, 4, 3, asp.AnchorTR)
	f := agg.MustNew(ds.Schema, agg.Spec{Kind: agg.Distribution, Attr: "cat"})
	q := asp.Query{F: f, Target: []float64{8, 0, 0}, W: agg.UnitWeights(3)}
	s, _ := dssearch.NewShapeSearcher(t, ds, 4, 3, q, dssearch.Options{})
	got := s.Solve()
	want := asp.BruteForce(rects, q)
	if math.Abs(got.Dist-want.Dist) > 1e-9 {
		t.Fatalf("coincident: %g vs %g", got.Dist, want.Dist)
	}
}

// TestDuplicatePoints: pairs of duplicated locations mixed with unique
// ones (common in check-in data).
func TestDuplicatePoints(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	ds := dataset.Random(30, 30, 17)
	for i := 15; i < 30; i++ {
		ds.Objects[i].Loc = ds.Objects[i-15].Loc
	}
	rects, _ := asp.Reduce(ds, 5, 5, asp.AnchorTR)
	q := randomQuery(t, ds, rng)
	sw, _ := sweep.New(rects, q)
	want := sw.Solve()
	s, _ := dssearch.NewShapeSearcher(t, ds, 5, 5, q, dssearch.Options{})
	got := s.Solve()
	if math.Abs(got.Dist-want.Dist) > 1e-9 {
		t.Fatalf("duplicates: %g vs %g", got.Dist, want.Dist)
	}
}

// TestL2Norm: DS-Search agrees with the sweep under the L2 metric too
// (§3.3 notes the proposals extend beyond L1).
func TestL2Norm(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 20; trial++ {
		ds := dataset.Random(1+rng.Intn(40), 40, rng.Int63())
		rects, _ := asp.Reduce(ds, 7, 7, asp.AnchorTR)
		q := randomQuery(t, ds, rng)
		q.Norm = agg.L2
		sw, _ := sweep.New(rects, q)
		want := sw.Solve()
		s, _ := dssearch.NewShapeSearcher(t, ds, 7, 7, q, dssearch.Options{})
		got := s.Solve()
		if math.Abs(got.Dist-want.Dist) > 1e-9 {
			t.Fatalf("trial %d L2: %g vs %g", trial, got.Dist, want.Dist)
		}
	}
}

// TestSeededSearcher: seeding with an incumbent no worse than the optimum
// must not degrade the answer (the GI-DS contract).
func TestSeededSearcher(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	ds := dataset.Random(30, 40, 20)
	rects, _ := asp.Reduce(ds, 6, 6, asp.AnchorTR)
	q := randomQuery(t, ds, rng)
	sw, _ := sweep.New(rects, q)
	want := sw.Solve()

	s, _ := dssearch.NewShapeSearcher(t, ds, 6, 6, q, dssearch.Options{})
	s.SeedBest(asp.Result{Point: geom.Point{X: -1e9, Y: -1e9}, Dist: math.Inf(1)})
	s.SolveWithin(s.Space(), 0)
	if got := s.Best(); math.Abs(got.Dist-want.Dist) > 1e-9 {
		t.Fatalf("seeded: %g vs %g", got.Dist, want.Dist)
	}
}
