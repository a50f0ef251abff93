// Benchmarks regenerating every table and figure of the paper's
// evaluation (§7) as testing.B benches. Each BenchmarkFigN/BenchmarkTableN
// family mirrors one artifact; the full parameter sweeps with printed
// rows live in cmd/asrsbench (internal/harness). Cardinalities are
// laptop-scale — the shapes (who wins, by what factor) are what carry
// over, not absolute times; see EXPERIMENTS.md.
package asrs_test

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"asrs"
	"asrs/internal/dataset"
)

// Dataset caches: generation is deterministic, so sharing across benches
// only removes setup noise.
var (
	tweetCache = map[int]*asrs.Dataset{}
	poiCache   = map[int]*asrs.Dataset{}
)

func tweetDS(n int) *asrs.Dataset {
	if d, ok := tweetCache[n]; ok {
		return d
	}
	d := dataset.Tweet(n, 42)
	tweetCache[n] = d
	return d
}

func poiDS(n int) *asrs.Dataset {
	if d, ok := poiCache[n]; ok {
		return d
	}
	d := dataset.POISyn(n, 42)
	poiCache[n] = d
	return d
}

func sizeK(ds *asrs.Dataset, k int) (float64, float64) {
	b := ds.Bounds()
	return float64(k) * b.Width() / 1000, float64(k) * b.Height() / 1000
}

func tweetQuery(b *testing.B, ds *asrs.Dataset, k int) (asrs.Query, float64, float64) {
	b.Helper()
	qa, qb := sizeK(ds, k)
	q, err := dataset.F1(ds, qa, qb)
	if err != nil {
		b.Fatal(err)
	}
	return q, qa, qb
}

func poiQuery(b *testing.B, ds *asrs.Dataset, k int) (asrs.Query, float64, float64) {
	b.Helper()
	qa, qb := sizeK(ds, k)
	q, err := dataset.F2(ds, qa, qb)
	if err != nil {
		b.Fatal(err)
	}
	return q, qa, qb
}

// ---- Figure 8: runtime vs query rectangle size, DS-Search vs Base ----

func BenchmarkFig8DSSearch(b *testing.B) {
	for _, k := range []int{1, 4, 7, 10} {
		b.Run(fmt.Sprintf("Tweet/size=%dq", k), func(b *testing.B) {
			ds := tweetDS(20000)
			q, qa, qb := tweetQuery(b, ds, k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := asrs.Search(ds, qa, qb, q, asrs.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("POISyn/size=%dq", k), func(b *testing.B) {
			ds := poiDS(20000)
			q, qa, qb := poiQuery(b, ds, k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := asrs.Search(ds, qa, qb, q, asrs.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig8Base(b *testing.B) {
	// The baseline is O(n²); it gets a smaller corpus so the suite stays
	// runnable. Compare per-object rates, not absolute times.
	for _, k := range []int{1, 4, 7, 10} {
		b.Run(fmt.Sprintf("Tweet/size=%dq", k), func(b *testing.B) {
			ds := tweetDS(2000)
			q, qa, qb := tweetQuery(b, ds, k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := asrs.SearchBaseline(ds, asrs.QueryRequest{Query: q, A: qa, B: qb}).Err; err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Figure 9: DS-Search runtime vs grid granularity ----

func BenchmarkFig9Granularity(b *testing.B) {
	ds := tweetDS(50000)
	q, qa, qb := tweetQuery(b, ds, 10)
	for _, g := range []int{10, 20, 30, 40, 50} {
		b.Run(fmt.Sprintf("ncol=nrow=%d", g), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, _, err := asrs.Search(ds, qa, qb, q, asrs.Options{NCol: g, NRow: g}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Figure 10: scalability in dataset cardinality ----

func BenchmarkFig10DSSearch(b *testing.B) {
	for _, n := range []int{10000, 40000, 70000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ds := tweetDS(n)
			q, qa, qb := tweetQuery(b, ds, 10)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := asrs.Search(ds, qa, qb, q, asrs.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig10Base(b *testing.B) {
	for _, n := range []int{1000, 2000, 4000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ds := tweetDS(n)
			q, qa, qb := tweetQuery(b, ds, 10)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := asrs.SearchBaseline(ds, asrs.QueryRequest{Query: q, A: qa, B: qb}).Err; err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Figure 11 / Table 1: GI-DS vs DS-Search across index granularity ----

func BenchmarkFig11GIDS(b *testing.B) {
	ds := tweetDS(100000)
	q, qa, qb := tweetQuery(b, ds, 10)
	b.Run("DS-Search", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, _, err := asrs.Search(ds, qa, qb, q, asrs.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, g := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("GIDS/grid=%d", g), func(b *testing.B) {
			idx, err := asrs.NewIndex(ds, q.F, g, g)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := asrs.SearchWithIndex(idx, ds, qa, qb, q, asrs.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable1IndexBuild(b *testing.B) {
	ds := tweetDS(100000)
	q, _, _ := tweetQuery(b, ds, 10)
	for _, g := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("grid=%d", g), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := asrs.NewIndex(ds, q.F, g, g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Figure 12 / Table 2: the approximate solution ----

func BenchmarkFig12AppGIDS(b *testing.B) {
	ds := tweetDS(100000)
	q, qa, qb := tweetQuery(b, ds, 10)
	idx, err := asrs.NewIndex(ds, q.F, 128, 128)
	if err != nil {
		b.Fatal(err)
	}
	for _, delta := range []float64{0.1, 0.2, 0.3, 0.4} {
		b.Run(fmt.Sprintf("delta=%.1f", delta), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, _, err := asrs.SearchWithIndex(idx, ds, qa, qb, q, asrs.Options{Delta: delta}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Figure 13: MaxRS, OE vs DS-Search ----

func maxrsPts(n int) []asrs.MaxRSPoint {
	ds := tweetDS(n)
	pts := make([]asrs.MaxRSPoint, len(ds.Objects))
	for i := range ds.Objects {
		pts[i] = asrs.MaxRSPoint{Loc: ds.Objects[i].Loc, Weight: 1}
	}
	return pts
}

func BenchmarkFig13aMaxRSSize(b *testing.B) {
	pts := maxrsPts(100000)
	bounds := dataset.USBounds()
	for _, k := range []int{1, 10, 30} {
		qa := float64(k) * bounds.Width() / 1000
		qb := float64(k) * bounds.Height() / 1000
		b.Run(fmt.Sprintf("OE/size=%dq", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := asrs.MaxRSBaseline(pts, qa, qb); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("DS/size=%dq", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := asrs.MaxRS(pts, qa, qb, asrs.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig13bMaxRSScale(b *testing.B) {
	bounds := dataset.USBounds()
	qa, qb := 10*bounds.Width()/1000, 10*bounds.Height()/1000
	for _, n := range []int{100000, 300000} {
		pts := maxrsPts(n)
		b.Run(fmt.Sprintf("OE/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := asrs.MaxRSBaseline(pts, qa, qb); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("DS/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := asrs.MaxRS(pts, qa, qb, asrs.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Figures 14–15: the case study ----

func BenchmarkCaseStudy(b *testing.B) {
	ds := dataset.SingaporePOI(42)
	f, err := asrs.NewComposite(ds.Schema, asrs.AggSpec{Kind: asrs.Distribution, Attr: "category"})
	if err != nil {
		b.Fatal(err)
	}
	orchard := dataset.SingaporeDistricts()[0]
	q, err := asrs.QueryFromRegion(ds, f, nil, orchard.Rect)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, _ := asrs.Answer(ds, nil, asrs.QueryRequest{Query: q, A: orchard.Rect.Width(), B: orchard.Rect.Height(), Exclude: []asrs.Rect{orchard.Rect}})
		if resp.Err != nil {
			b.Fatal(resp.Err)
		}
	}
}

// ---- Top-k rounds: the f2-stream shape, one engine request ----

// BenchmarkTopKRounds times one Engine top-3 request in the regime of the
// zoo's f2-stream workload — POISyn n = 5 000, the paper's F2 composite
// (sum of visits + average rating: a real-valued, unsorted master), a
// 30-unit region — with the grid index (every round a GI-DS run, rounds
// 2 and 3 cut around the earlier answers) and with indexing off (plain
// DS-Search over space minus exclusions). The same distances either way.
func BenchmarkTopKRounds(b *testing.B) {
	ds := poiDS(5000)
	q, qa, qb := poiQuery(b, ds, 30)
	req := asrs.QueryRequest{Query: q, A: qa, B: qb, TopK: 3}
	var want []asrs.Result
	for _, g := range []int{64, 0} {
		b.Run(fmt.Sprintf("grid=%d", g), func(b *testing.B) {
			eng, err := asrs.NewEngine(ds, asrs.EngineOptions{IndexGranularity: g, Search: asrs.Options{Workers: 1}})
			if err != nil {
				b.Fatal(err)
			}
			if err := eng.Warm(q.F); err != nil {
				b.Fatal(err)
			}
			resp := eng.Query(req) // fills the slab cache
			if resp.Err != nil || len(resp.Results) != 3 {
				b.Fatalf("top-3 answered %d rows, err %v", len(resp.Results), resp.Err)
			}
			if want == nil {
				want = resp.Results
			}
			for i, r := range resp.Results {
				if r.Dist != want[i].Dist {
					b.Fatalf("row %d at distance %v, the other configuration answered %v", i, r.Dist, want[i].Dist)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if resp = eng.Query(req); resp.Err != nil {
					b.Fatal(resp.Err)
				}
			}
			b.ReportMetric(float64(eng.Stats().IndexedExclusionRounds)/float64(b.N+1), "indexed-excl-rounds/op")
		})
	}
}

// BenchmarkF1Indexed is the count tripwire of an indexed query's
// trajectory: one F1 query of the serving benchmark's f1-distinct shape —
// Tweet 20k, an 8-unit answer, grid 64, the pyramid bound, a target at 0.8
// of the most weekend tweets a window can hold, which many regions come
// close to. Its counts repeat exactly run to run. Discretizations: 15
// with spaces swept as soon as few rectangles have an edge inside them
// (DESIGN.md §3; 1 044 when overlapping rectangles were counted, 11 while
// both margin strips were searched ahead of the first cell and handed it
// an incumbent); it fails above 100. Cells searched: 8 of 4 096, pinned —
// what the best-first order over cells and strips is held to (§5). Margin
// runs: 1, reported. And it fails on a distance plain DS-Search does not
// answer.
func BenchmarkF1Indexed(b *testing.B) {
	ds := tweetDS(20000)
	qa, qb := sizeK(ds, 8)
	f, err := asrs.NewComposite(ds.Schema, asrs.AggSpec{Kind: asrs.Distribution, Attr: "day"})
	if err != nil {
		b.Fatal(err)
	}
	day := ds.Schema.Index("day")
	most := func(d int) float64 {
		return dataset.MaxWindowStat(ds, qa, qb, func(o *asrs.Object) float64 {
			if o.Values[day].Cat == d {
				return 1
			}
			return 0
		})
	}
	q, err := asrs.QueryFromTarget(f,
		[]float64{0, 0, 0, 0, 0, math.Trunc(0.8*most(5)) + 0.5, math.Trunc(0.8*most(6)) + 0.5},
		[]float64{0.2, 0.2, 0.2, 0.2, 0.2, 0.5, 0.5})
	if err != nil {
		b.Fatal(err)
	}
	idx, err := asrs.NewIndex(ds, f, 64, 64)
	if err != nil {
		b.Fatal(err)
	}
	pyr, err := asrs.BuildPyramid(ds, f)
	if err != nil {
		b.Fatal(err)
	}
	req := asrs.QueryRequest{Query: q, A: qa, B: qb, Options: &asrs.Options{Workers: 1, Pyramid: pyr}}
	plain, _ := asrs.Answer(ds, nil, req)
	if plain.Err != nil {
		b.Fatal(plain.Err)
	}
	discretizations, marginRuns := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, stats := asrs.Answer(ds, idx, req)
		if resp.Err != nil {
			b.Fatal(resp.Err)
		}
		if d, want := resp.Results[0].Dist, plain.Results[0].Dist; math.Float64bits(d) != math.Float64bits(want) {
			b.Fatalf("distance %v with the grid index, %v without", d, want)
		}
		if stats.CellsSearched != 8 {
			b.Fatalf("%d cells searched, want 8", stats.CellsSearched)
		}
		discretizations += stats.DS.Discretizations
		marginRuns += stats.MarginRuns
	}
	perQuery := float64(discretizations) / float64(b.N)
	b.ReportMetric(perQuery, "discretizations/query")
	b.ReportMetric(float64(marginRuns)/float64(b.N), "margin_runs/query")
	if perQuery > 100 {
		b.Fatalf("%v discretizations per query, want at most 100", perQuery)
	}
}

// BenchmarkBatchSameShape is the instrument behind the deletion of the
// batch grouping pass (DESIGN.md §6): 16 plain requests of one (a, b) on
// Singapore 50k — the case sharing a prepared shape was built for — none
// or a quarter of them exact duplicates, answered as one QueryBatch and
// as 16 concurrent Query calls, with a grid index and without. It fails
// on an answer that differs from the solo query's or when searches +
// joins ≠ 16, and reports ms/batch, searches/batch and dedup/batch (B/op,
// with -benchmem, is per batch).
func BenchmarkBatchSameShape(b *testing.B) {
	const n = 16
	ds := dataset.SingaporeScaled(50000, 1)
	f, err := asrs.NewComposite(ds.Schema,
		asrs.AggSpec{Kind: asrs.Distribution, Attr: "category"}, asrs.AggSpec{Kind: asrs.Count})
	if err != nil {
		b.Fatal(err)
	}
	bounds := ds.Bounds()
	qa, qb := bounds.Width()/24, bounds.Height()/24
	rng := rand.New(rand.NewSource(1))
	distinct := make([]asrs.QueryRequest, n)
	for i := range distinct {
		// A target no region matches exactly (as bench/workloads.go draws
		// them), so every request runs a full search.
		o := ds.Objects[rng.Intn(len(ds.Objects))]
		target := asrs.Represent(ds, f, asrs.Rect{MinX: o.Loc.X - qa/2, MinY: o.Loc.Y - qb/2, MaxX: o.Loc.X + qa/2, MaxY: o.Loc.Y + qb/2})
		for j := range target {
			target[j] = math.Trunc(target[j]*1.1) + 0.5
		}
		q, err := asrs.QueryFromTarget(f, target, nil)
		if err != nil {
			b.Fatal(err)
		}
		distinct[i] = asrs.QueryRequest{Query: q, A: qa, B: qb}
	}
	for _, grid := range []int{64, 0} {
		eng, err := asrs.NewEngine(ds, asrs.EngineOptions{IndexGranularity: grid})
		if err != nil {
			b.Fatal(err)
		}
		solo := eng.QueryBatch(distinct) // also warms index, pyramid and slabs
		for _, dup := range []float64{0, 0.25} {
			reqs, want := append([]asrs.QueryRequest(nil), distinct...), append([]asrs.QueryResponse(nil), solo...)
			for i := 3; dup > 0 && i < n; i += 4 {
				reqs[i], want[i] = reqs[i-1], want[i-1] // every fourth repeats its neighbour
			}
			arms := []struct {
				name string
				run  func() []asrs.QueryResponse
			}{
				{"QueryBatch", func() []asrs.QueryResponse { return eng.QueryBatch(reqs) }},
				{"Query", func() []asrs.QueryResponse {
					out := make([]asrs.QueryResponse, n)
					var wg sync.WaitGroup
					for i := range reqs {
						wg.Add(1)
						go func(i int) {
							defer wg.Done()
							out[i] = eng.Query(reqs[i])
						}(i)
					}
					wg.Wait()
					return out
				}},
			}
			for _, arm := range arms {
				b.Run(fmt.Sprintf("grid=%d/dup=%v/%s", grid, dup, arm.name), func(b *testing.B) {
					before := eng.Stats()
					b.ReportAllocs()
					b.ResetTimer()
					for it := 0; it < b.N; it++ {
						for i, resp := range arm.run() {
							if resp.Err != nil || math.Float64bits(resp.Results[0].Dist) != math.Float64bits(want[i].Results[0].Dist) {
								b.Fatalf("request %d: %v (err %v), solo %v", i, resp.Results, resp.Err, want[i].Results[0].Dist)
							}
						}
					}
					st := eng.Stats()
					searches, joins := st.LatencyCount-before.LatencyCount, st.DedupHits-before.DedupHits
					if searches+joins != int64(n*b.N) {
						b.Fatalf("%d searches + %d joins over %d batches of %d", searches, joins, b.N, n)
					}
					b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "ms/batch")
					b.ReportMetric(float64(searches)/float64(b.N), "searches/batch")
					b.ReportMetric(float64(joins)/float64(b.N), "dedup/batch")
				})
			}
		}
	}
}
