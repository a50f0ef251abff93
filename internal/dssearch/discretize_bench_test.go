package dssearch_test

import (
	"math"
	"testing"

	"asrs/internal/agg"
	"asrs/internal/asp"
	"asrs/internal/attr"
	"asrs/internal/dataset"
	"asrs/internal/dssearch"
)

var discretizeSink int

// BenchmarkDiscretize times one Function Discretize call in the regimes
// the benchmark zoo's searches spend their time in (DESIGN.md §3),
// discretized against a near-optimal incumbent. F1 and F2 are a 30×30
// grid over a space holding ≈ 300 rectangles, about a third of them with
// an edge inside it: F1 is the paper's 7-channel integer fD composite on
// Tweet (the f1-distinct corpus and a 16-unit query), F2 the real-valued
// fS + fA composite on POISyn (the f2-stream corpus). cell-seed is the
// discretization hot-coalesce mostly runs: a GI-DS cell's seed space of
// ≈ 1 200 rectangles at its sized grid (17×17), on Singapore 50k's
// category composite under a W/32 query. The steady state must not
// allocate, and each shape must keep exactly its pinned number of dirty
// cells (want: F1 30, F2 19, cell-seed 18), so that a fill or a bound
// that moves one cell fails here and not only in a replay:
//
//	go test -run '^$' -bench Discretize -benchmem ./internal/dssearch/
func BenchmarkDiscretize(b *testing.B) {
	cases := []struct {
		name   string
		corpus func() *attr.Dataset
		units  float64 // query extent in dataset.QueryUnit units
		query  func(ds *attr.Dataset, a, b float64) (asp.Query, error)
		ids    int  // rectangles the space grows to hold
		cell   bool // discretized as a GI-DS cell's seed, at its sized grid
		want   int  // dirty cells a call keeps
	}{
		{"F1", func() *attr.Dataset { return dataset.Tweet(20000, 42) }, 16, dataset.F1, 300, false, 30},
		{"F2", func() *attr.Dataset { return dataset.POISyn(5000, 42) }, 30, dataset.F2, 300, false, 19},
		{"cell-seed", func() *attr.Dataset { return dataset.SingaporeScaled(50000, 42) }, 1000.0 / 32, categoryQuery, 1200, true, 18},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			ds := c.corpus()
			ua, ub := dataset.QueryUnit(ds.Bounds())
			qa, qb := c.units*ua, c.units*ub
			q, err := c.query(ds, qa, qb)
			if err != nil {
				b.Fatal(err)
			}
			h, err := dssearch.NewDiscretizeHarness(b, ds, q, qa, qb, c.ids, c.cell)
			if err != nil {
				b.Fatal(err)
			}
			discretizeSink = h.Run() // first use builds the worker's grid
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				discretizeSink = h.Run()
			}
			b.StopTimer()
			if allocs := testing.AllocsPerRun(10, func() { discretizeSink = h.Run() }); allocs != 0 {
				b.Fatalf("discretize allocates %.0f times per call, want 0", allocs)
			}
			if discretizeSink != c.want {
				b.Fatalf("discretize keeps %d dirty cells, want %d", discretizeSink, c.want)
			}
			ncol, _ := h.Grid()
			b.ReportMetric(float64(ncol), "grid")
			b.ReportMetric(float64(len(h.Ids)), "ids")
			b.ReportMetric(float64(h.Crossing()), "crossing")
			b.ReportMetric(float64(discretizeSink), "dirty")
		})
	}
}

// categoryQuery is a hot-coalesce query on the Singapore corpus: the
// category distribution, L1 with unit weights, targeting a tenth more of
// every category than the a×b region centred on the middle object holds
// (plus one half, so no region matches it exactly).
func categoryQuery(ds *attr.Dataset, a, b float64) (asp.Query, error) {
	f, err := agg.New(ds.Schema, agg.Spec{Kind: agg.Distribution, Attr: "category"})
	if err != nil {
		return asp.Query{}, err
	}
	o := ds.Objects[len(ds.Objects)/2].Loc
	target := f.Representation(ds, agg.OpenRect{MinX: o.X - a/2, MinY: o.Y - b/2, MaxX: o.X + a/2, MaxY: o.Y + b/2})
	for i := range target {
		target[i] = math.Trunc(target[i]*1.1) + 0.5
	}
	q := asp.Query{F: f, Target: target}
	return q, q.Validate()
}
