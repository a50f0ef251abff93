// Benchmarks regenerating every table and figure of the paper's
// evaluation (§7), one family per artifact: Figs 8–13, Tables 1–2 and the
// Figs 14–15 case study. Regenerate them all with
//
//	go test -run '^$' -bench 'Fig|Table|CaseStudy' .
//
// (add -benchtime=1x for one pass). A family that times two algorithms
// first answers once with each, untimed, and fails unless they agree:
// Base = DS-Search, GI-DS = DS-Search, OE = DS MaxRS, and
// d_app ≤ (1+δ)·d_opt. Cardinalities are laptop-scale — the shapes (who
// wins, by what factor) are what carry over, not absolute times.
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

// workload is one of §7.1's two query families: Composite Aggregator 1
// over Tweet and Composite Aggregator 2 over POISyn. Every figure the
// paper draws for both runs both from this table. n is the corpus of the
// fixed-cardinality figures and the top of the cardinality series: an F2
// query costs far more per object than an F1 query, so POISyn's is
// smaller.
type workload struct {
	name  string
	n     int
	ds    func(n int) *asrs.Dataset
	query func(ds *asrs.Dataset, a, b float64) (asrs.Query, error)
}

var (
	tweet     = workload{"Tweet", 100000, tweetDS, dataset.F1}
	poisyn    = workload{"POISyn", 20000, poiDS, dataset.F2}
	workloads = []workload{tweet, poisyn}
	sizes     = []int{1, 4, 7, 10} // query sizes, in units of q
)

// at returns w's corpus of n objects and its query at size k·q, where q is
// a thousandth of the corpus bounds on each axis.
func (w workload) at(b *testing.B, n, k int) (*asrs.Dataset, asrs.Query, float64, float64) {
	b.Helper()
	ds := w.ds(n)
	qa, qb := sizeK(ds, k)
	q, err := w.query(ds, qa, qb)
	if err != nil {
		b.Fatal(err)
	}
	return ds, q, qa, qb
}

// answer runs one plain request through the library's one driver —
// DS-Search without an index, GI-DS with one — and returns its distance.
func answer(b *testing.B, ds *asrs.Dataset, idx *asrs.Index, q asrs.Query, qa, qb float64, opt asrs.Options) (float64, asrs.IndexStats) {
	resp, stats := asrs.Answer(ds, idx, asrs.QueryRequest{Query: q, A: qa, B: qb, Options: &opt})
	if resp.Err != nil {
		b.Fatal(resp.Err)
	}
	return resp.Results[0].Dist, stats
}

// side is one algorithm of a figure; run returns its answer's distance
// (or MaxRS weight).
type side struct {
	name string
	run  func(b *testing.B) float64
}

// race answers once with every side, untimed, and fails unless each found
// an answer as good as the first side's; then it times each side as a
// sub-benchmark.
func race(b *testing.B, sides ...side) {
	if len(sides) > 1 {
		want := sides[0].run(b)
		for _, s := range sides[1:] {
			if got := s.run(b); math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
				b.Fatalf("%s answered %v, %s %v", s.name, got, sides[0].name, want)
			}
		}
	}
	for _, s := range sides {
		b.Run(s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.run(b)
			}
		})
	}
}

func baseSide(ds *asrs.Dataset, q asrs.Query, qa, qb float64) side {
	return side{"Base", func(b *testing.B) float64 {
		resp := asrs.SearchBaseline(ds, asrs.QueryRequest{Query: q, A: qa, B: qb})
		if resp.Err != nil {
			b.Fatal(resp.Err)
		}
		return resp.Results[0].Dist
	}}
}

func dsSide(ds *asrs.Dataset, q asrs.Query, qa, qb float64, opt asrs.Options) side {
	return side{"DS-Search", func(b *testing.B) float64 {
		d, _ := answer(b, ds, nil, q, qa, qb, opt)
		return d
	}}
}

// ---- Figure 8: runtime vs query rectangle size, Base vs DS-Search ----

// BenchmarkFig8 runs both algorithms on one corpus per workload, kept
// small for the O(n²) baseline: compare the two, not absolute times.
func BenchmarkFig8(b *testing.B) {
	for _, w := range workloads {
		for _, k := range sizes {
			b.Run(fmt.Sprintf("%s/size=%dq", w.name, k), func(b *testing.B) {
				ds, q, qa, qb := w.at(b, 2000, k)
				race(b, baseSide(ds, q, qa, qb), dsSide(ds, q, qa, qb, asrs.Options{}))
			})
		}
	}
}

// ---- Figure 9: DS-Search runtime vs grid granularity n_col = n_row ----

// BenchmarkFig9 runs on half of each workload's corpus: at 10 × 10 cells
// a query over all of it takes seconds.
func BenchmarkFig9(b *testing.B) {
	for _, w := range workloads {
		for _, k := range sizes {
			ds, q, qa, qb := w.at(b, w.n/2, k)
			for _, g := range []int{10, 20, 30, 40, 50} {
				b.Run(fmt.Sprintf("%s/size=%dq/ncol=nrow=%d", w.name, k, g), func(b *testing.B) {
					race(b, dsSide(ds, q, qa, qb, asrs.Options{NCol: g, NRow: g}))
				})
			}
		}
	}
}

// ---- Figure 10: runtime vs dataset cardinality, Base vs DS-Search ----

// BenchmarkFig10 runs the baseline up to 4 000 objects, where one query
// already takes a second, and DS-Search across the whole series.
func BenchmarkFig10(b *testing.B) {
	for _, w := range workloads {
		for _, m := range []int{1, 2, 4, 10, 40, 70, 100} {
			n := m * w.n / 100
			b.Run(fmt.Sprintf("%s/n=%d", w.name, n), func(b *testing.B) {
				ds, q, qa, qb := w.at(b, n, 10)
				sides := []side{dsSide(ds, q, qa, qb, asrs.Options{})}
				if n <= 4000 {
					sides = append([]side{baseSide(ds, q, qa, qb)}, sides...)
				}
				race(b, sides...)
			})
		}
	}
}

// ---- Figure 11 / Table 1: GI-DS vs DS-Search across index granularity ----

// BenchmarkFig11Table1 times DS-Search and GI-DS over 64², 128² and 256²
// grid indices; each GI-DS run reports Table 1's share of index cells
// searched and the index's size.
func BenchmarkFig11Table1(b *testing.B) {
	for _, w := range workloads {
		for _, k := range sizes {
			b.Run(fmt.Sprintf("%s/size=%dq", w.name, k), func(b *testing.B) {
				ds, q, qa, qb := w.at(b, w.n, k)
				sides := []side{dsSide(ds, q, qa, qb, asrs.Options{})}
				for _, g := range []int{64, 128, 256} {
					idx, err := asrs.NewIndex(ds, q.F, g, g)
					if err != nil {
						b.Fatal(err)
					}
					mib := float64(idx.SizeBytes()) / (1 << 20)
					sides = append(sides, side{fmt.Sprintf("GI-DS/grid=%d", g), func(b *testing.B) float64 {
						d, st := answer(b, ds, idx, q, qa, qb, asrs.Options{})
						b.ReportMetric(100*float64(st.CellsSearched)/float64(st.Cells), "cells-searched-%")
						b.ReportMetric(mib, "index-MiB")
						return d
					}})
				}
				race(b, sides...)
			})
		}
	}
}

// ---- Figure 12 / Table 2: the approximate solution app-GIDS ----

// BenchmarkFig12Table2 times GI-DS over a 128² index at δ = 0 (exact,
// d_opt) and at δ = 0.1–0.4 (d_app) across cardinalities, reports Table
// 2's d_app/d_opt, and fails when it exceeds 1+δ.
func BenchmarkFig12Table2(b *testing.B) {
	for _, w := range workloads {
		for _, n := range []int{w.n / 2, w.n, w.n * 3 / 2} {
			b.Run(fmt.Sprintf("%s/n=%d", w.name, n), func(b *testing.B) {
				ds, q, qa, qb := w.at(b, n, 10)
				idx, err := asrs.NewIndex(ds, q.F, 128, 128)
				if err != nil {
					b.Fatal(err)
				}
				var dOpt float64
				for _, delta := range []float64{0, 0.1, 0.2, 0.3, 0.4} {
					opt := asrs.Options{Delta: delta}
					dApp, _ := answer(b, ds, idx, q, qa, qb, opt)
					if delta == 0 {
						dOpt = dApp
					}
					quality := 1.0
					if dOpt > 0 {
						quality = dApp / dOpt
					}
					if quality > 1+delta+1e-9 {
						b.Fatalf("δ=%v: d_app/d_opt = %v", delta, quality)
					}
					b.Run(fmt.Sprintf("delta=%.1f", delta), func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							answer(b, ds, idx, q, qa, qb, opt)
						}
						b.ReportMetric(quality, "dapp/dopt")
					})
				}
			})
		}
	}
}

// ---- Figure 13: MaxRS, OE vs DS-Search ----

// maxrsRace times the OE plane sweep and DS-Search's MaxRS on weight-1
// points sampled from Tweet, as the paper samples tweets.
func maxrsRace(b *testing.B, n, k int) {
	ds := tweetDS(n)
	pts := make([]asrs.MaxRSPoint, len(ds.Objects))
	for i := range ds.Objects {
		pts[i] = asrs.MaxRSPoint{Loc: ds.Objects[i].Loc, Weight: 1}
	}
	bounds := dataset.USBounds()
	qa, qb := float64(k)*bounds.Width()/1000, float64(k)*bounds.Height()/1000
	race(b,
		side{"OE", func(b *testing.B) float64 {
			res, err := asrs.MaxRSBaseline(pts, qa, qb)
			if err != nil {
				b.Fatal(err)
			}
			return res.Weight
		}},
		side{"DS", func(b *testing.B) float64 {
			res, _, err := asrs.MaxRS(pts, qa, qb, asrs.Options{})
			if err != nil {
				b.Fatal(err)
			}
			return res.Weight
		}})
}

func BenchmarkFig13aMaxRSSize(b *testing.B) {
	for _, k := range []int{1, 10, 20, 30} {
		b.Run(fmt.Sprintf("size=%dq", k), func(b *testing.B) { maxrsRace(b, 100000, k) })
	}
}

func BenchmarkFig13bMaxRSScale(b *testing.B) {
	for _, n := range []int{100000, 200000, 300000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { maxrsRace(b, n, 10) })
	}
}

// ---- Figures 14–15: the case study ----

// BenchmarkCaseStudy reports the answer's distance beside Bugis's — the
// instructive non-answer of Fig 15 — and logs Fig 14(b)'s category
// distributions of Orchard, the answer and Bugis.
func BenchmarkCaseStudy(b *testing.B) {
	ds, req := caseStudy(b)
	var resp asrs.QueryResponse
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resp, _ = asrs.Answer(ds, nil, req); resp.Err != nil {
			b.Fatal(resp.Err)
		}
	}
	region, res := resp.Best()
	bugis := asrs.Represent(ds, req.Query.F, dataset.SingaporeDistricts()[2].Rect)
	b.ReportMetric(res.Dist, "dist")
	b.ReportMetric(req.Query.Distance(bugis), "bugis-dist")
	b.Logf("answer %v, mostly in %q; POIs per category %q:", region, district(region), dataset.POICategories)
	b.Logf("Orchard %v", req.Query.Target)
	b.Logf("answer  %v", res.Rep)
	b.Logf("Bugis   %v", bugis)
}

// ---- Top-k rounds: the f2-stream shape, one engine request ----

// BenchmarkTopKRounds times one Engine top-3 request in the regime of the
// zoo's f2-stream workload — POISyn n = 5 000, the paper's F2 composite
// (sum of visits + average rating: full-mantissa reals, their sums two
// exact limbs each, on a sorted master), a 30-unit region — with the
// grid index (every round a GI-DS run, rounds
// 2 and 3 cut around the earlier answers) and with indexing off (plain
// DS-Search over space minus exclusions). The same distances either way.
func BenchmarkTopKRounds(b *testing.B) {
	ds, q, qa, qb := poisyn.at(b, 5000, 30)
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
// what the best-first order over cells and strips is held to (§5). Cell
// ranges bounded: 233, where every one of the 4 096 cells was bounded
// before the loop split ranges lazily; it fails above 233. Margin runs:
// 1, and dirty cells bounded inside the cells searched, reported (the
// first grid of a cell is sized to its rectangles, DESIGN.md §5). And it
// fails on a distance plain DS-Search does not answer.
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
	discretizations, marginRuns, bounded, dirty := 0, 0, 0, 0
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
		bounded += stats.Bounded
		dirty += stats.DS.DirtyCells
	}
	perQuery := float64(discretizations) / float64(b.N)
	b.ReportMetric(perQuery, "discretizations/query")
	b.ReportMetric(float64(marginRuns)/float64(b.N), "margin_runs/query")
	b.ReportMetric(float64(dirty)/float64(b.N), "dirty_cells/query")
	ranges := float64(bounded) / float64(b.N)
	b.ReportMetric(ranges, "bounded/query")
	if perQuery > 100 {
		b.Fatalf("%v discretizations per query, want at most 100", perQuery)
	}
	if ranges > 233 {
		b.Fatalf("%v cell ranges bounded per query, want at most 233", ranges)
	}
}

// BenchmarkPaperScaleDS is the count tripwire of the paper-scale run
// (asrsquery -dataset poisyn -n 100000 -k 10 -algo ds): F2 on POISyn
// 100k, a 10-unit region, plain DS-Search. The generator clamps its
// clusters to the bounds, so hundreds of rectangles share edge
// coordinates, and a space straddling such a line keeps them edged at any
// width: counting edged rectangles alone, the terminal rule halved those
// spaces down to slivers for 10 992 discretizations. Counting distinct
// edge coordinates it sweeps them (DESIGN.md §3): 105, 78 once the clause
// counted up to 15 distinct y edges, and 174 since dirty cells keep
// Equation 1's bound (subset-enumeration refinement pruned the rest). It
// fails above 1 000
// discretizations, and on a distance GI-DS (grid 128, checked once,
// untimed) does not answer.
func BenchmarkPaperScaleDS(b *testing.B) {
	ds, q, qa, qb := poisyn.at(b, 100000, 10)
	opt := asrs.Options{Workers: 1}
	idx, err := asrs.NewIndex(ds, q.F, 128, 128)
	if err != nil {
		b.Fatal(err)
	}
	want, _ := answer(b, ds, idx, q, qa, qb, opt)
	discretizations := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, stats := answer(b, ds, nil, q, qa, qb, opt)
		if math.Float64bits(d) != math.Float64bits(want) {
			b.Fatalf("DS-Search answered %v, GI-DS %v", d, want)
		}
		discretizations += stats.DS.Discretizations
	}
	perOp := float64(discretizations) / float64(b.N)
	b.ReportMetric(perOp, "discretizations/op")
	if perOp > 1000 {
		b.Fatalf("%v discretizations per search, want at most 1 000", perOp)
	}
}

// BenchmarkPaperScaleDSLattice is the tripwire of the terminal rule's y
// clause (DESIGN.md §3): 20 000 objects of dataset.Random on a 100×100
// integer lattice, a = b = 7.5, one F2 target (sum and average of val),
// plain DS-Search. Every edge coordinate is a whole number, so a space
// under 15 units high holds at most 15 distinct y edges and is swept
// before it is gridded. It reports discretizations/op — 1 213; 1 214
// while subset-enumeration refinement ran, 2 228 while the clause stopped
// at 4 lines beside the paper's drop condition, 5 327 with the clause at 4
// and no drop condition — and fails above 1.5× 1 214 or on a distance
// GI-DS (grid 64, checked once, untimed) does not answer.
func BenchmarkPaperScaleDSLattice(b *testing.B) {
	const disc = 1214
	const qa, qb = 7.5, 7.5
	ds := dataset.Random(20000, 100, 7)
	for i := range ds.Objects {
		l := &ds.Objects[i].Loc
		l.X, l.Y = math.Round(l.X), math.Round(l.Y)
	}
	f, err := asrs.NewComposite(ds.Schema, asrs.AggSpec{Kind: asrs.Sum, Attr: "val"}, asrs.AggSpec{Kind: asrs.Average, Attr: "val"})
	if err != nil {
		b.Fatal(err)
	}
	o := ds.Objects[rand.New(rand.NewSource(3)).Intn(len(ds.Objects))].Loc
	target := asrs.Represent(ds, f, asrs.Rect{MinX: o.X - qa/2, MinY: o.Y - qb/2, MaxX: o.X + qa/2, MaxY: o.Y + qb/2})
	for j := range target {
		target[j] = math.Trunc(target[j]*1.1) + 0.5
	}
	q, err := asrs.QueryFromTarget(f, target, nil)
	if err != nil {
		b.Fatal(err)
	}
	opt := asrs.Options{Workers: 1}
	idx, err := asrs.NewIndex(ds, f, 64, 64)
	if err != nil {
		b.Fatal(err)
	}
	want, _ := answer(b, ds, idx, q, qa, qb, opt)
	discretizations := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, stats := answer(b, ds, nil, q, qa, qb, opt)
		if math.Float64bits(d) != math.Float64bits(want) {
			b.Fatalf("DS-Search answered %v, GI-DS %v", d, want)
		}
		discretizations += stats.DS.Discretizations
	}
	perOp := float64(discretizations) / float64(b.N)
	b.ReportMetric(perOp, "discretizations/op")
	if perOp > 1.5*disc {
		b.Fatalf("%v discretizations per search, want at most %v", perOp, 1.5*disc)
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
