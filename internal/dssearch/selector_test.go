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
	"asrs/internal/sweep"
)

// selectiveQuery exercises non-trivial selection functions γ end to end:
// a distribution over all objects, an average over only category "a"
// objects, and a sum over objects with positive values.
func selectiveQuery(t testing.TB, ds *attr.Dataset, rng *rand.Rand) asp.Query {
	t.Helper()
	catIdx := ds.Schema.Index("cat")
	valIdx := ds.Schema.Index("val")
	f, err := agg.New(ds.Schema,
		agg.Spec{Kind: agg.Distribution, Attr: "cat"},
		agg.Spec{Kind: agg.Average, Attr: "val", Select: attr.SelectCategory(catIdx, 0)},
		agg.Spec{Kind: agg.Sum, Attr: "val", Select: attr.SelectNumRange(valIdx, 0, 10)},
	)
	if err != nil {
		t.Fatal(err)
	}
	target := make([]float64, f.Dims())
	w := make([]float64, f.Dims())
	for i := range target {
		target[i] = rng.NormFloat64() * 4
		w[i] = 0.1 + rng.Float64()
	}
	return asp.Query{F: f, Target: target, W: w}
}

// TestSelectorsEndToEnd: DS-Search with selective γ matches the sweep.
func TestSelectorsEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for trial := 0; trial < 30; trial++ {
		ds := dataset.Random(1+rng.Intn(50), 50, rng.Int63())
		rects, _ := asp.Reduce(ds, 7, 9, asp.AnchorTR)
		q := selectiveQuery(t, ds, rng)
		sw, _ := sweep.New(rects, q)
		want := sw.Solve()
		s, err := dssearch.NewShapeSearcher(t, ds, 7, 9, q, dssearch.Options{NCol: 10, NRow: 10})
		if err != nil {
			t.Fatal(err)
		}
		got := s.Solve()
		if math.Abs(got.Dist-want.Dist) > 1e-9 {
			t.Fatalf("trial %d: selective γ: %g vs %g", trial, got.Dist, want.Dist)
		}
	}
}
