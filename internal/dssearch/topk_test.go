package dssearch_test

import (
	"math"
	"math/rand"
	"testing"

	"asrs"
	"asrs/internal/agg"
	"asrs/internal/asp"
	"asrs/internal/dataset"
	"asrs/internal/dssearch"
	"asrs/internal/geom"
)

func TestTopKNonOverlappingAndOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for trial := 0; trial < 10; trial++ {
		ds := dataset.Random(60, 60, rng.Int63())
		f := agg.MustNew(ds.Schema,
			agg.Spec{Kind: agg.Distribution, Attr: "cat"},
		)
		target := []float64{float64(rng.Intn(5)), float64(rng.Intn(5)), float64(rng.Intn(5))}
		q := asp.Query{F: f, Target: target}
		const k = 4
		resp, _ := asrs.Answer(ds, nil, asrs.QueryRequest{Query: q, A: 7, B: 7, TopK: k, Options: &dssearch.Options{NCol: 10, NRow: 10}})
		if resp.Err != nil {
			t.Fatal(resp.Err)
		}
		regions, results := resp.Regions, resp.Results
		if len(regions) != k || len(results) != k {
			t.Fatalf("got %d regions, want %d", len(regions), k)
		}
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				if regions[i].IntersectsOpen(regions[j]) {
					t.Fatalf("trial %d: regions %d and %d overlap: %v, %v", trial, i, j, regions[i], regions[j])
				}
			}
			if i > 0 && results[i].Dist < results[i-1].Dist-1e-9 {
				t.Fatalf("trial %d: distances not monotone: %g after %g", trial, results[i].Dist, results[i-1].Dist)
			}
		}
		// The first answer must match the unconstrained optimum.
		_, best, _, err := dssearch.SolveASRS(ds, 7, 7, q, nil, nil, dssearch.Options{NCol: 10, NRow: 10})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(results[0].Dist-best.Dist) > 1e-9 {
			t.Fatalf("trial %d: top-1 %g != optimum %g", trial, results[0].Dist, best.Dist)
		}
	}
}

func TestTopKRespectsExternalExclusion(t *testing.T) {
	ds := dataset.Random(50, 50, 51)
	f := agg.MustNew(ds.Schema, agg.Spec{Kind: agg.Distribution, Attr: "cat"})
	q := asp.Query{F: f, Target: []float64{3, 3, 3}}
	avoid := geom.Rect{MinX: 10, MinY: 10, MaxX: 30, MaxY: 30}
	resp, _ := asrs.Answer(ds, nil, asrs.QueryRequest{Query: q, A: 6, B: 6, TopK: 3, Exclude: []geom.Rect{avoid}})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	for i, r := range resp.Regions {
		if r.IntersectsOpen(avoid) {
			t.Fatalf("region %d (%v) overlaps exclusion %v", i, r, avoid)
		}
	}
}
