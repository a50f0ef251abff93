package asrs_test

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"asrs"
	"asrs/internal/dataset"
)

// batchFixture builds a Singapore-flavored dataset, a composite, and a
// set of overlapping query-by-example requests (the serving shape:
// shared extents, some exact duplicates).
func batchFixture(t *testing.T, nQueries int, seed int64) (*asrs.Dataset, *asrs.Composite, []asrs.QueryRequest) {
	t.Helper()
	ds := dataset.SingaporePOI(seed)
	f, err := asrs.NewComposite(ds.Schema,
		asrs.AggSpec{Kind: asrs.Distribution, Attr: "category"},
		asrs.AggSpec{Kind: asrs.Count},
	)
	if err != nil {
		t.Fatal(err)
	}
	bounds := ds.Bounds()
	a := bounds.Width() / 14
	b := bounds.Height() / 14
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]asrs.QueryRequest, nQueries)
	for i := range reqs {
		// Overlapping extents around the center of the corpus.
		cx := bounds.MinX + bounds.Width()*(0.35+0.3*rng.Float64())
		cy := bounds.MinY + bounds.Height()*(0.35+0.3*rng.Float64())
		rq := asrs.Rect{MinX: cx, MinY: cy, MaxX: cx + a, MaxY: cy + b}
		q, err := asrs.QueryFromRegion(ds, f, nil, rq)
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = asrs.QueryRequest{Query: q, A: a, B: b, Exclude: []asrs.Rect{rq}}
		if i%2 == 0 {
			// Half the batch is plain; the excluded half rides the TopK
			// machinery and must coexist untouched.
			reqs[i].Exclude = nil
		}
		if i > 0 && i%5 == 0 {
			reqs[i] = reqs[i-1] // exact duplicates may join one search
		}
	}
	return ds, f, reqs
}

// respKey flattens a response for comparison.
func respEqual(t *testing.T, tag string, i int, a, b asrs.QueryResponse) {
	t.Helper()
	if (a.Err == nil) != (b.Err == nil) || len(a.Regions) != len(b.Regions) {
		t.Fatalf("%s: response %d shape differs: %+v vs %+v", tag, i, a, b)
	}
	for k := range a.Regions {
		if a.Regions[k] != b.Regions[k] {
			t.Fatalf("%s: response %d region %d: %v != %v", tag, i, k, a.Regions[k], b.Regions[k])
		}
		if a.Results[k].Dist != b.Results[k].Dist || a.Results[k].Point != b.Results[k].Point {
			t.Fatalf("%s: response %d result %d: %v@%v != %v@%v", tag, i, k,
				a.Results[k].Dist, a.Results[k].Point, b.Results[k].Dist, b.Results[k].Point)
		}
		for j := range a.Results[k].Rep {
			if math.Float64bits(a.Results[k].Rep[j]) != math.Float64bits(b.Results[k].Rep[j]) {
				t.Fatalf("%s: response %d rep[%d] differs", tag, i, j)
			}
		}
	}
}

// TestBatchDeterminism: per-request answers are bit-identical across
// pyramid on/off, batch parallelism and the inert worker option — the
// acceptance contract of the batched serving path.
func TestBatchDeterminism(t *testing.T) {
	ds, _, reqs := batchFixture(t, 14, 21)
	configs := []struct {
		tag string
		opt asrs.EngineOptions
	}{
		{"baseline", asrs.EngineOptions{BatchParallelism: 1, DisablePyramid: true, Search: asrs.Options{Workers: 1}}},
		{"pyramid", asrs.EngineOptions{BatchParallelism: 1, Search: asrs.Options{Workers: 1}}},
		{"par2-nopyramid-workers", asrs.EngineOptions{BatchParallelism: 2, DisablePyramid: true, Search: asrs.Options{Workers: 3}}},
		{"par4", asrs.EngineOptions{BatchParallelism: 4, Search: asrs.Options{Workers: 1}}},
		{"par2-workers", asrs.EngineOptions{BatchParallelism: 2, Search: asrs.Options{Workers: 3}}},
	}
	var want []asrs.QueryResponse
	for ci, cfg := range configs {
		eng, err := asrs.NewEngine(ds, cfg.opt)
		if err != nil {
			t.Fatal(err)
		}
		got := eng.QueryBatch(reqs)
		for i := range got {
			if got[i].Err != nil {
				t.Fatalf("%s: request %d failed: %v", cfg.tag, i, got[i].Err)
			}
		}
		if ci == 0 {
			want = got
			continue
		}
		for i := range got {
			respEqual(t, cfg.tag, i, got[i], want[i])
		}
	}
}

// TestBatchGroupingMatchesSingleQueries: a batch answers every request
// exactly as the same engine answers it alone.
func TestBatchGroupingMatchesSingleQueries(t *testing.T) {
	ds, _, reqs := batchFixture(t, 10, 33)
	eng, err := asrs.NewEngine(ds, asrs.EngineOptions{BatchParallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	batch := eng.QueryBatch(reqs)
	for i := range reqs {
		single := eng.Query(reqs[i])
		respEqual(t, "single-vs-batch", i, batch[i], single)
	}
}

// TestEnginePyramidRoundTripServing: a pyramid built apart from the
// engine (BuildPyramid) and installed with SetPyramid serves answers
// bit-identical to the pyramid the engine builds itself, and so does a
// second engine booted over the same corpus, as after a restart.
func TestEnginePyramidRoundTripServing(t *testing.T) {
	ds, f, reqs := batchFixture(t, 6, 44)
	apart, err := asrs.BuildPyramid(ds, f)
	if err != nil {
		t.Fatal(err)
	}
	engBuilt, err := asrs.NewEngine(ds, asrs.EngineOptions{BatchParallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	engInstalled, err := asrs.NewEngine(ds, asrs.EngineOptions{BatchParallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := engInstalled.SetPyramid(apart); err != nil {
		t.Fatal(err)
	}
	engRebooted, err := asrs.NewEngine(ds, asrs.EngineOptions{BatchParallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := engRebooted.Warm(f); err != nil {
		t.Fatal(err)
	}
	a := engBuilt.QueryBatch(reqs)
	b := engInstalled.QueryBatch(reqs)
	c := engRebooted.QueryBatch(reqs)
	for i := range a {
		respEqual(t, "installed-pyramid", i, a[i], b[i])
		respEqual(t, "rebooted-engine", i, a[i], c[i])
	}
	if p, err := engInstalled.Pyramid(f); err != nil || p != apart {
		t.Fatalf("the engine serves another pyramid than the installed one (err %v)", err)
	}
}

// TestBatchSteadyStateAllocs is the alloc-regression assertion of the
// serving paths: once the engine is warm (pyramid built, slabs populated),
// answering a whole batch through QueryBatch must stay under a small
// per-query allocation budget, in count and in bytes — the search
// scratch is reused across the queries of a batch instead of re-acquired,
// and a query binds its shape into retained memory instead of reducing
// the corpus anew. So must the batch's plain requests sent one by one to
// an engine with a grid index, in bytes — GI-DS recycles its bound array
// and cell heap — and in count no more than one GI-DS run allocated before
// a top-k's rounds became one session that carries state between them.
func TestBatchSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting under -short")
	}
	ds, _, reqs := batchFixture(t, 8, 55)
	measure := func(n int, run func()) (allocs, bytes float64) {
		run() // warm: builds index and pyramid, slabs, scratch
		run()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(5, run)
		runtime.ReadMemStats(&after)
		// AllocsPerRun runs once more than it counts, to warm up.
		return allocs / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(6*n)
	}
	const bytesBudget = 64 << 10

	eng, err := asrs.NewEngine(ds, asrs.EngineOptions{BatchParallelism: 1, Search: asrs.Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	allocs, bytes := measure(len(reqs), func() { eng.QueryBatch(reqs) })
	// Measured 56: a query here is a dozen kernel runs of one to three
	// items (a heap, a bound and a child collector each), response Rep
	// copies and the TopK path of the excluding half. The budget leaves
	// half as much again for a pool the collector emptied mid-run; it was
	// 133 while every run set up superstep slots (16 allocations before
	// the first item), 1 172 while spaces split down to the drop condition
	// and every run built a full batch of slots, and re-building the search
	// scratch per query costs thousands. Bytes: 8 KiB measured; 17 KiB with
	// the slots, 113 KiB while every other query reduced the corpus into a
	// fresh rectangle array.
	if allocs > 100 {
		t.Fatalf("steady-state batch allocations: %.0f allocs/query (budget 100)", allocs)
	}
	if bytes > bytesBudget {
		t.Fatalf("steady-state batch allocations: %.0f bytes/query (budget %d)", bytes, bytesBudget)
	}
	t.Logf("steady-state batch: %.0f allocs/query, %.0f bytes/query", allocs, bytes)

	var plain []asrs.QueryRequest
	for _, req := range reqs {
		if len(req.Exclude) == 0 {
			plain = append(plain, req)
		}
	}
	indexed, err := asrs.NewEngine(ds, asrs.EngineOptions{IndexGranularity: 64, Search: asrs.Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	allocs, bytes = measure(len(plain), func() {
		for _, req := range plain {
			indexed.Query(req)
		}
	})
	// Measured 5–7 KiB: the kernel runs of the cells discretized. A cell
	// the terminal rule sweeps sets up no run, and a piece's ids live in
	// the index's pooled scratch.
	if bytes > bytesBudget {
		t.Fatalf("steady-state indexed queries: %.0f bytes/query (budget %d)", bytes, bytesBudget)
	}
	// A top-1 request opens a GI-DS session that can have no second round:
	// it records nothing, and the session and its driver live on the
	// stack. A swept cell is swept without a kernel run (SolveCell), and
	// the query's plan and scratch come from the free list, so a query
	// allocates 70.6 times (71.6 while every released searcher's panic
	// check allocated, 72.6 while every searcher allocated its
	// integer-dimension flags instead of compiling its bound into its
	// slab).
	if allocs > 73 {
		t.Fatalf("steady-state indexed queries: %.1f allocs/query, more than 73", allocs)
	}
	t.Logf("steady-state indexed queries: %.1f allocs/query, %.0f bytes/query", allocs, bytes)
}
