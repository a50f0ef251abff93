package sweep_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"asrs/internal/agg"
	"asrs/internal/asp"
	"asrs/internal/attr"
	"asrs/internal/dataset"
	"asrs/internal/geom"
	"asrs/internal/sweep"
)

// randomQuery builds a composite aggregator and random target/weights over
// the generic test schema of dataset.Random.
func randomQuery(t testing.TB, ds *attr.Dataset, rng *rand.Rand) asp.Query {
	t.Helper()
	specs := []agg.Spec{
		{Kind: agg.Distribution, Attr: "cat"},
		{Kind: agg.Average, Attr: "val"},
		{Kind: agg.Sum, Attr: "val"},
	}
	// Use a random non-empty subset of components.
	var chosen []agg.Spec
	for _, s := range specs {
		if rng.Intn(2) == 0 {
			chosen = append(chosen, s)
		}
	}
	if len(chosen) == 0 {
		chosen = specs[:1]
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

// TestSweepMatchesBruteForce is the core correctness test: on random
// instances the sweep's optimum distance must equal the brute-force
// enumeration of all disjoint regions.
func TestSweepMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(25)
		ds := dataset.Random(n, 40, rng.Int63())
		a := 2 + rng.Float64()*12
		b := 2 + rng.Float64()*12
		rects, err := asp.Reduce(ds, a, b, asp.AnchorTR)
		if err != nil {
			t.Fatal(err)
		}
		q := randomQuery(t, ds, rng)
		want := asp.BruteForce(rects, q)

		s, err := sweep.New(rects, q)
		if err != nil {
			t.Fatal(err)
		}
		got := s.Solve()
		if math.Abs(got.Dist-want.Dist) > 1e-9 {
			t.Fatalf("trial %d (n=%d): sweep %g vs brute %g", trial, n, got.Dist, want.Dist)
		}
		// The returned point must actually achieve the reported distance.
		rep := asp.PointRepresentation(rects, q.F, got.Point)
		if d := q.Distance(rep); math.Abs(d-got.Dist) > 1e-9 {
			t.Fatalf("trial %d: reported %g but point evaluates to %g", trial, got.Dist, d)
		}
	}
}

func TestSweepEmptyInstance(t *testing.T) {
	ds := dataset.Random(1, 10, 9)
	f := agg.MustNew(ds.Schema, agg.Spec{Kind: agg.Sum, Attr: "val"})
	q := asp.Query{F: f, Target: []float64{0}}
	s, err := sweep.New(nil, q)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Solve()
	if res.Dist != 0 {
		t.Fatalf("empty instance: dist %g, want 0 (empty rep matches zero target)", res.Dist)
	}
}

func TestSweepRejectsBadQuery(t *testing.T) {
	ds := dataset.Random(3, 10, 10)
	f := agg.MustNew(ds.Schema, agg.Spec{Kind: agg.Sum, Attr: "val"})
	if _, err := sweep.New(nil, asp.Query{F: f, Target: []float64{1, 2}}); err == nil {
		t.Fatal("expected validation error")
	}
}

// TestSolveWithinRestriction: the best point returned must lie inside the
// requested space, and restricting to the full space must match Solve.
func TestSolveWithinRestriction(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	ds := dataset.Random(30, 40, 123)
	rects, _ := asp.Reduce(ds, 8, 8, asp.AnchorTR)
	q := randomQuery(t, ds, rng)
	s, _ := sweep.New(rects, q)

	sub := geom.Rect{MinX: 5, MinY: 5, MaxX: 20, MaxY: 25}
	res, ok := s.SolveWithin(sub)
	if !ok {
		t.Fatal("no candidate found in sub-space")
	}
	if !sub.ContainsClosed(res.Point) {
		t.Fatalf("point %v outside space %v", res.Point, sub)
	}
	rep := asp.PointRepresentation(rects, q.F, res.Point)
	if d := q.Distance(rep); math.Abs(d-res.Dist) > 1e-9 {
		t.Fatalf("reported %g, point evaluates to %g", res.Dist, d)
	}
}

// TestSolveWithinDegenerateSpaces: a zero-width space is one column of
// candidates, a zero-height one a line and a point space one candidate.
// New's classic walk and a production solver (NewSized: the flat pass)
// must each find a candidate there, agree bit for bit, and return the
// representation asp.PointRepresentation sums at their point. Two
// rectangles have an edge on the column x = 3, and two on the line y = 7:
// their open extents do not contain it, so they cover no candidate there.
// An invalid space finds nothing.
func TestSolveWithinDegenerateSpaces(t *testing.T) {
	ds := dataset.Random(10, 20, 5)
	rects, _ := asp.Reduce(ds, 5, 5, asp.AnchorTR)
	for i, r := range []geom.Rect{
		{MinX: 3, MinY: 0, MaxX: 9, MaxY: 20}, {MinX: -2, MinY: 0, MaxX: 3, MaxY: 20},
		{MinX: 0, MinY: 7, MaxX: 20, MaxY: 15}, {MinX: 0, MinY: 1, MaxX: 20, MaxY: 7},
	} {
		rects = append(rects, asp.RectObject{Rect: r, Obj: &ds.Objects[i]})
	}
	rng := rand.New(rand.NewSource(1))
	q := randomQuery(t, ds, rng)
	classic, err := sweep.New(rects, q)
	if err != nil {
		t.Fatal(err)
	}
	flat := sweep.NewSized()
	bindRects(t, flat, rects, rects, q)
	for _, space := range []geom.Rect{
		{MinX: 3, MinY: 0, MaxX: 3, MaxY: 20}, // zero width
		{MinX: 0, MinY: 7, MaxX: 20, MaxY: 7}, // zero height
		{MinX: 3, MinY: 7, MaxX: 3, MaxY: 7},  // a point
	} {
		want, wok := classic.SolveWithin(space)
		got, gok := flat.SolveWithin(space)
		if !wok || !gok {
			t.Fatalf("space %v: found %v (New), %v (production), want both", space, wok, gok)
		}
		if !space.ContainsClosed(want.Point) {
			t.Fatalf("space %v: point %v outside it", space, want.Point)
		}
		rep := asp.PointRepresentation(rects, q.F, want.Point)
		for _, pair := range [][2][]float64{
			{{want.Dist, want.Point.X, want.Point.Y}, {got.Dist, got.Point.X, got.Point.Y}},
			{want.Rep, got.Rep}, {rep, got.Rep}, {{q.Distance(rep)}, {got.Dist}},
		} {
			if !slices.EqualFunc(pair[0], pair[1], func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
				t.Fatalf("space %v: %v vs %v (New %g@%v, production %g@%v)", space, pair[0], pair[1], want.Dist, want.Point, got.Dist, got.Point)
			}
		}
	}
	if _, ok := classic.SolveWithin(geom.Rect{MinX: 5, MinY: 5, MaxX: 4, MaxY: 6}); ok {
		t.Fatal("invalid space should return ok=false")
	}
	if _, ok := flat.SolveWithin(geom.Rect{MinX: 5, MinY: 5, MaxX: 4, MaxY: 6}); ok {
		t.Fatal("invalid space should return ok=false")
	}
}

// TestSweepStats sanity-checks the work counters.
func TestSweepStats(t *testing.T) {
	ds := dataset.Random(15, 30, 8)
	rects, _ := asp.Reduce(ds, 6, 6, asp.AnchorTR)
	rng := rand.New(rand.NewSource(2))
	q := randomQuery(t, ds, rng)
	s, _ := sweep.New(rects, q)
	s.Solve()
	if s.Stats.Strips == 0 || s.Stats.Intervals == 0 {
		t.Fatalf("stats not recorded: %+v", s.Stats)
	}
}

// TestSweepCoincidentObjects: duplicated locations must not break the
// sweep (degenerate arrangements with zero-width gaps).
func TestSweepCoincidentObjects(t *testing.T) {
	ds := dataset.Random(6, 20, 31)
	for i := range ds.Objects {
		ds.Objects[i].Loc = geom.Point{X: 10, Y: 10} // all coincident
	}
	rects, _ := asp.Reduce(ds, 4, 4, asp.AnchorTR)
	f := agg.MustNew(ds.Schema, agg.Spec{Kind: agg.Distribution, Attr: "cat"})
	q := asp.Query{F: f, Target: []float64{6, 0, 0}}
	s, err := sweep.New(rects, q)
	if err != nil {
		t.Fatal(err)
	}
	got := s.Solve()
	want := asp.BruteForce(rects, q)
	if math.Abs(got.Dist-want.Dist) > 1e-9 {
		t.Fatalf("coincident: sweep %g vs brute %g", got.Dist, want.Dist)
	}
}
