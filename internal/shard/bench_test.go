package shard_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"asrs"
	"asrs/internal/agg"
	"asrs/internal/dataset"
	"asrs/internal/query"
	"asrs/internal/shard"
)

// BenchmarkRoutedStraddle times straddling extent queries over a 4-shard
// catalog after inserts into every shard (each shard's epoch is a folded
// pyramid). Its one-shot sub-benchmark reports ms/op, B/op, allocs/op,
// band_joins/op (the bands joined from the shards' pyramids with their
// rows copied) and band_skips/op. It fails on any distance that differs
// from one merged engine's windowed answer, when one of these fault-free
// straddles skips a band or builds a band's core, and when a steady-state
// straddling query allocates more than maxQueryBytes: joined bands copy
// their shards' runs and rows (about 225 KB a query), where bands built
// from their objects took about 650 KB. Its stream-top3 sub-benchmark
// streams a top-3 as three rounds of one router session
// (query.RouterBinding.Rounds) and reports B/op and band_joins/stream. It
// fails on a row whose distance the one-shot top-3 differs on, and unless
// each band is joined once per stream, by its first round.
func BenchmarkRoutedStraddle(b *testing.B) {
	ds := dataset.Random(20000, 100, 41)
	f := agg.MustNew(ds.Schema,
		agg.Spec{Kind: agg.Distribution, Attr: "cat"},
		agg.Spec{Kind: agg.Sum, Attr: "val"},
	)
	q := asrs.Query{F: f, Target: []float64{1, 2, 1, 5}}
	cat, err := shard.New(ds, shard.Config{
		Shards:     4,
		Composites: map[string]*asrs.Composite{"q": f},
		Names:      []string{"q"},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cat.Close()
	rt := shard.NewRouter(cat, shard.RouterOptions{Breaker: shard.BreakerConfig{Disable: true}})
	if err := rt.Insert(dataset.Random(400, 100, 42).Objects); err != nil {
		b.Fatal(err)
	}
	merged := sessionDataset(rt)
	oracle, err := asrs.NewEngine(merged, asrs.EngineOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer oracle.Close()

	const a, h = 1.5, 1.5
	extents := []asrs.Rect{
		{MinX: 10, MinY: 10, MaxX: 60, MaxY: 30},
		{MinX: 30, MinY: 50, MaxX: 90, MaxY: 65},
		{MinX: 20, MinY: 70, MaxX: 80, MaxY: 95},
	}
	want := make([]float64, len(extents))
	for i := range extents {
		resp := oracle.Query(asrs.QueryRequest{Query: q, A: a, B: h, Within: &extents[i]})
		if resp.Err != nil {
			b.Fatal(resp.Err)
		}
		want[i] = resp.Results[0].Dist
	}
	b.Run("one-shot", func(b *testing.B) {
		route := func(i int) {
			resp := rt.Query(context.Background(), shard.Request{Query: q, A: a, B: h, Extent: &extents[i]})
			if resp.Err != nil {
				b.Fatal(resp.Err)
			}
			if len(resp.Coverage.Searched) <= 2 {
				b.Fatalf("extent %v searched %v: it does not straddle", extents[i], resp.Coverage.Searched)
			}
			if !sameBits(resp.Results[0].Dist, want[i]) {
				b.Fatalf("extent %v: routed dist %v, merged %v", extents[i], resp.Results[0].Dist, want[i])
			}
		}

		// Steady state: every epoch, pyramid and slab is in place after one
		// pass.
		for i := range extents {
			route(i)
		}
		const passes = 3
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for p := 0; p < passes; p++ {
			for i := range extents {
				route(i)
			}
		}
		runtime.ReadMemStats(&after)
		const maxQueryBytes = 320 << 10
		if perQuery := (after.TotalAlloc - before.TotalAlloc) / uint64(passes*len(extents)); perQuery > maxQueryBytes {
			b.Fatalf("a steady-state straddling query allocates %d B, more than %d B", perQuery, maxQueryBytes)
		}

		b.ReportAllocs()
		prev := rt.Stats()
		b.ResetTimer()
		start := time.Now()
		for n := 0; n < b.N; n++ {
			route(n % len(extents))
		}
		b.ReportMetric(float64(time.Since(start).Microseconds())/1e3/float64(b.N), "ms/op")
		st := rt.Stats()
		b.ReportMetric(float64(st.BandJoins-prev.BandJoins)/float64(b.N), "band_joins/op")
		b.ReportMetric(float64(st.BandSkips-prev.BandSkips)/float64(b.N), "band_skips/op")
		if st.BandSkips != 0 || st.BandBuilds != 0 {
			b.Fatalf("fault-free straddles skipped %d bands and built %d, want every band joined", st.BandSkips, st.BandBuilds)
		}
	})

	// A streamed top-3 is three rounds of one session: the rows are the
	// one-shot top-3's, and every band is joined by the first round alone.
	b.Run("stream-top3", func(b *testing.B) {
		top3 := make([]shard.Response, len(extents))
		bands := make([]int, len(extents))
		for i := range extents {
			top3[i] = rt.Query(context.Background(), shard.Request{Query: q, A: a, B: h, TopK: 3, Extent: &extents[i]})
			if top3[i].Err != nil || len(top3[i].Results) != 3 {
				b.Fatalf("extent %v: one-shot top-3 answered %d rows, err %v", extents[i], len(top3[i].Results), top3[i].Err)
			}
			bands[i] = len(bandWindows(cat, extents[i], a))
		}
		binding := query.RouterBinding{R: rt}
		stream := func(i int) {
			rounds := binding.Rounds(context.Background(), 3)
			defer rounds.Close()
			req := asrs.QueryRequest{Query: q, A: a, B: h, Within: &extents[i]}
			for k, want := range top3[i].Results {
				resp, _ := rounds.Round(req)
				if resp.Err != nil {
					b.Fatal(resp.Err)
				}
				region, res := resp.Best()
				if !sameBits(res.Dist, want.Dist) {
					b.Fatalf("extent %v row %d: streamed dist %v, one-shot %v", extents[i], k+1, res.Dist, want.Dist)
				}
				req.Exclude = append(req.Exclude, region)
			}
		}
		b.ReportAllocs()
		prev, joins := rt.Stats(), 0
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			stream(n % len(extents))
			joins += bands[n%len(extents)]
		}
		b.StopTimer()
		st := rt.Stats()
		b.ReportMetric(float64(st.BandJoins-prev.BandJoins)/float64(b.N), "band_joins/stream")
		if st.BandJoins-prev.BandJoins != int64(joins) || st.BandBuilds != 0 || st.BandSkips != 0 {
			b.Fatalf("%d streams joined %d bands, built %d and skipped %d, want each of their %d bands joined once",
				b.N, st.BandJoins-prev.BandJoins, st.BandBuilds, st.BandSkips, joins)
		}
	})
}
