package dssearch_test

import (
	"testing"

	"asrs/internal/asp"
	"asrs/internal/attr"
	"asrs/internal/dataset"
	"asrs/internal/dssearch"
)

var discretizeSink int

// BenchmarkDiscretize times one Function Discretize call in the regime
// the benchmark zoo's searches spend their time in (DESIGN.md §3): a
// 30×30 grid over a space holding ≈ 300 rectangles, about a third of
// them with an edge inside it, discretized against a near-optimal
// incumbent. F1 is the paper's 7-channel integer fD composite on Tweet
// (the f1-distinct corpus and a 16-unit query), F2 the real-valued
// fS + fA composite on POISyn (the f2-stream corpus). The steady state
// must not allocate:
//
//	go test -run '^$' -bench Discretize -benchmem ./internal/dssearch/
func BenchmarkDiscretize(b *testing.B) {
	cases := []struct {
		name   string
		corpus func() *attr.Dataset
		units  float64 // query extent in dataset.QueryUnit units
		query  func(ds *attr.Dataset, a, b float64) (asp.Query, error)
	}{
		{"F1", func() *attr.Dataset { return dataset.Tweet(20000, 42) }, 16, dataset.F1},
		{"F2", func() *attr.Dataset { return dataset.POISyn(5000, 42) }, 30, dataset.F2},
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
			rects, err := asp.Reduce(ds, qa, qb, asp.AnchorTR)
			if err != nil {
				b.Fatal(err)
			}
			h, err := dssearch.NewDiscretizeHarness(rects, q, qa, qb, 300)
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
			b.ReportMetric(float64(len(h.Ids)), "ids")
			b.ReportMetric(float64(h.Crossing()), "crossing")
			b.ReportMetric(float64(discretizeSink), "dirty")
		})
	}
}
