package gridindex_test

import (
	"math"
	"math/rand"
	"testing"

	"asrs/internal/agg"
	"asrs/internal/asp"
	"asrs/internal/attr"
	"asrs/internal/dataset"
	"asrs/internal/dssearch"
	"asrs/internal/gridindex"
	"asrs/internal/sweep"
)

// TestGIDSSelectiveGamma: selection functions are applied at index build
// time, so GI-DS with selective composites must stay exact.
func TestGIDSSelectiveGamma(t *testing.T) {
	rng := rand.New(rand.NewSource(140))
	for trial := 0; trial < 12; trial++ {
		ds := dataset.Random(1+rng.Intn(60), 50, rng.Int63())
		catIdx := ds.Schema.Index("cat")
		valIdx := ds.Schema.Index("val")
		f, err := agg.New(ds.Schema,
			agg.Spec{Kind: agg.Count, Select: attr.SelectCategory(catIdx, 0)},
			agg.Spec{Kind: agg.Average, Attr: "val", Select: attr.SelectNumRange(valIdx, 0, 10)},
			agg.Spec{Kind: agg.Sum, Attr: "val", Select: attr.SelectCategory(catIdx, 2)},
		)
		if err != nil {
			t.Fatal(err)
		}
		target := make([]float64, f.Dims())
		for i := range target {
			target[i] = rng.NormFloat64() * 4
		}
		q := asp.Query{F: f, Target: target}
		a, b := 6.0, 8.0
		rects, _ := asp.Reduce(ds, a, b, asp.AnchorTR)
		sw, _ := sweep.New(rects, q)
		want := sw.Solve()

		idx, err := gridindex.Build(ds, f, 12, 12)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := gridindex.Solve(idx, ds, q, a, b, nil, dssearch.Options{NCol: 10, NRow: 10})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Dist-want.Dist) > 1e-9 {
			t.Fatalf("trial %d: selective GI-DS %g vs sweep %g", trial, got.Dist, want.Dist)
		}
	}
}

// TestGIDSCountComposite: MER via fC through the full index stack.
func TestGIDSCountComposite(t *testing.T) {
	ds := dataset.Random(120, 50, 141)
	f := agg.MustNew(ds.Schema, agg.Spec{Kind: agg.Count})
	q := asp.Query{F: f, Target: []float64{1e9}}
	a, b := 10.0, 10.0
	rects, _ := asp.Reduce(ds, a, b, asp.AnchorTR)
	idx, _ := gridindex.Build(ds, f, 16, 16)
	got, _, err := gridindex.Solve(idx, ds, q, a, b, nil, dssearch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, wantW := asp.MaxCoverPoint(rects, func(int) float64 { return 1 })
	if got.Rep[0] != wantW {
		t.Fatalf("GI-DS MER count %g, brute force %g", got.Rep[0], wantW)
	}
}
