package asrs_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"asrs"
	"asrs/internal/dataset"
)

// workerSweep is the worker counts every determinism test compares. The
// kernel's superstep schedule is worker-count independent, so answers
// must be bit-identical across the sweep — including the point, not just
// the distance.
var workerSweep = []int{1, 2, 8}

// TestSearchDeterministicAcrossWorkers: DS-Search answers (region, point
// and distance) must not depend on Options.Workers, on randomized
// datasets including ones with heavy distance ties (integer fD counts).
func TestSearchDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12; trial++ {
		n := 50 + rng.Intn(400)
		ds := dataset.Random(n, 80, rng.Int63())
		f, err := asrs.NewComposite(ds.Schema,
			asrs.AggSpec{Kind: asrs.Distribution, Attr: "cat"},
			asrs.AggSpec{Kind: asrs.Sum, Attr: "val"},
		)
		if err != nil {
			t.Fatal(err)
		}
		target := []float64{float64(rng.Intn(6)), float64(rng.Intn(6)), float64(rng.Intn(6)), rng.NormFloat64() * 10}
		q, err := asrs.QueryFromTarget(f, target, nil)
		if err != nil {
			t.Fatal(err)
		}
		a := 4 + rng.Float64()*10
		b := 4 + rng.Float64()*10

		type answer struct {
			region asrs.Rect
			dist   float64
		}
		var want answer
		for i, w := range workerSweep {
			region, res, _, err := asrs.Search(ds, a, b, q, asrs.Options{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			got := answer{region: region, dist: res.Dist}
			if i == 0 {
				want = got
				continue
			}
			if got != want {
				t.Fatalf("trial %d: workers=%d answered %+v, workers=%d answered %+v",
					trial, w, got, workerSweep[0], want)
			}
		}
	}
}

// TestSearchWithIndexDeterministicAcrossWorkers: the GI-DS path must be
// worker-count independent too, and agree with plain DS-Search on the
// distance.
func TestSearchWithIndexDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 6; trial++ {
		ds := dataset.Random(300+rng.Intn(500), 100, rng.Int63())
		f, err := asrs.NewComposite(ds.Schema, asrs.AggSpec{Kind: asrs.Distribution, Attr: "cat"})
		if err != nil {
			t.Fatal(err)
		}
		q, err := asrs.QueryFromTarget(f, []float64{4, 3, 2}, nil)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := asrs.NewIndex(ds, f, 24, 24)
		if err != nil {
			t.Fatal(err)
		}
		a, b := 9.0, 8.0

		_, direct, _, err := asrs.Search(ds, a, b, q, asrs.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var wantRegion asrs.Rect
		var wantDist float64
		for i, w := range workerSweep {
			region, res, _, err := asrs.SearchWithIndex(idx, ds, a, b, q, asrs.Options{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if res.Dist != direct.Dist {
				t.Fatalf("trial %d workers=%d: GI-DS %g != DS %g", trial, w, res.Dist, direct.Dist)
			}
			if i == 0 {
				wantRegion, wantDist = region, res.Dist
				continue
			}
			if region != wantRegion || res.Dist != wantDist {
				t.Fatalf("trial %d: workers=%d region %v dist %g, want %v / %g",
					trial, w, region, res.Dist, wantRegion, wantDist)
			}
		}
	}
}

// TestMaxRSDeterministicAcrossWorkers: the MaxRS adaptation inherits the
// kernel, so corner, weight and region must be identical for any worker
// count — unit weights make ties ubiquitous, which is exactly the hard
// case for schedule independence.
func TestMaxRSDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 8; trial++ {
		n := 100 + rng.Intn(900)
		pts := make([]asrs.MaxRSPoint, n)
		for i := range pts {
			pts[i] = asrs.MaxRSPoint{
				Loc:    asrs.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100},
				Weight: 1,
			}
		}
		a := 5 + rng.Float64()*10
		b := 5 + rng.Float64()*10

		var want asrs.MaxRSResult
		for i, w := range workerSweep {
			got, _, err := asrs.MaxRS(pts, a, b, asrs.Options{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				want = got
				continue
			}
			if got != want {
				t.Fatalf("trial %d: workers=%d %+v, want %+v", trial, w, got, want)
			}
		}
		// Sanity: the parallel answer still matches the OE baseline weight.
		oe, err := asrs.MaxRSBaseline(pts, a, b)
		if err != nil {
			t.Fatal(err)
		}
		if want.Weight != oe.Weight {
			t.Fatalf("trial %d: DS weight %g != OE weight %g", trial, want.Weight, oe.Weight)
		}
	}
}

// TestApproximateDeterministicAcrossWorkers: even the (1+δ) variant —
// where pruning is aggressive and the answer is not the unique optimum —
// must be schedule-independent.
func TestApproximateDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ds := dataset.Random(600, 90, 177)
	f, err := asrs.NewComposite(ds.Schema, asrs.AggSpec{Kind: asrs.Distribution, Attr: "cat"})
	if err != nil {
		t.Fatal(err)
	}
	q, err := asrs.QueryFromTarget(f, []float64{5, 4, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = rng
	var want asrs.Rect
	var wantDist float64
	for i, w := range workerSweep {
		region, res, _, err := asrs.Search(ds, 7, 7, q, asrs.Options{Delta: 0.3, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want, wantDist = region, res.Dist
			continue
		}
		if region != want || res.Dist != wantDist {
			t.Fatalf("workers=%d: %v / %g, want %v / %g", w, region, res.Dist, want, wantDist)
		}
	}
}

// TestSATLayerDeterministicAcrossWorkers: on a corpus large enough that
// the root spaces of an un-indexed search hold thousands of rectangles —
// the sizes the aggregation layer's sorted master, windows and anchor
// bins exist for — answers must be bit-identical across worker counts.
func TestSATLayerDeterministicAcrossWorkers(t *testing.T) {
	ds := dataset.Tweet(32000, 42)
	f, err := asrs.NewComposite(ds.Schema, asrs.AggSpec{Kind: asrs.Distribution, Attr: "day"})
	if err != nil {
		t.Fatal(err)
	}
	q, err := asrs.QueryFromTarget(f, []float64{0, 0, 0, 0, 0, 40, 40}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := ds.Bounds()
	a := 10 * b.Width() / 1000
	bb := 10 * b.Height() / 1000

	type answer struct {
		region asrs.Rect
		point  asrs.Point
		dist   float64
	}
	var want answer
	for i, w := range workerSweep {
		region, res, _, err := asrs.Search(ds, a, bb, q, asrs.Options{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		got := answer{region: region, point: res.Point, dist: res.Dist}
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("workers=%d answered %+v, want %+v", w, got, want)
		}
	}
}

// TestEngineQueryBatchParallel: one engine, one shared lazily built
// index, many goroutines issuing batches concurrently — every response
// must match the serial answer.
func TestEngineQueryBatchParallel(t *testing.T) {
	ds := dataset.Random(2000, 120, 19)
	f, err := asrs.NewComposite(ds.Schema,
		asrs.AggSpec{Kind: asrs.Distribution, Attr: "cat"},
	)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := asrs.NewEngine(ds, asrs.EngineOptions{
		IndexGranularity: 16,
		BatchParallelism: 4,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Build the request set and the serial reference answers.
	var reqs []asrs.QueryRequest
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 10; i++ {
		target := []float64{float64(rng.Intn(8)), float64(rng.Intn(8)), float64(rng.Intn(8))}
		q, err := asrs.QueryFromTarget(f, target, nil)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, asrs.QueryRequest{Query: q, A: 6 + float64(i), B: 9})
	}
	want := make([]asrs.QueryResponse, len(reqs))
	for i, r := range reqs {
		want[i] = eng.Query(r)
		if want[i].Err != nil {
			t.Fatal(want[i].Err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := eng.QueryBatch(reqs)
			for i := range got {
				if got[i].Err != nil {
					errs <- got[i].Err
					return
				}
				gr, gres := got[i].Best()
				wr, wres := want[i].Best()
				if gr != wr || gres.Dist != wres.Dist {
					t.Errorf("request %d: %v/%g, want %v/%g", i, gr, gres.Dist, wr, wres.Dist)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSearchTerminatesOnNaNTarget: a NaN query target makes every
// distance comparison false; the kernel must still drain its heap and
// return instead of livelocking (regression: the superstep pop loop
// originally spun forever when the pruning threshold was NaN).
func TestSearchTerminatesOnNaNTarget(t *testing.T) {
	ds := dataset.Random(300, 50, 31)
	f, err := asrs.NewComposite(ds.Schema, asrs.AggSpec{Kind: asrs.Distribution, Attr: "cat"})
	if err != nil {
		t.Fatal(err)
	}
	q, err := asrs.QueryFromTarget(f, []float64{math.NaN(), 1, 2}, nil)
	if err != nil {
		t.Skip("NaN target rejected at validation:", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _, _ = asrs.Search(ds, 6, 6, q, asrs.Options{Workers: 2})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Search hung on NaN target")
	}
}

// TestEngineTopKAndExclude routes through the greedy machinery.
func TestEngineTopKAndExclude(t *testing.T) {
	ds := dataset.Random(200, 80, 29)
	f, err := asrs.NewComposite(ds.Schema, asrs.AggSpec{Kind: asrs.Distribution, Attr: "cat"})
	if err != nil {
		t.Fatal(err)
	}
	q, err := asrs.QueryFromTarget(f, []float64{3, 2, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := asrs.NewEngine(ds, asrs.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	resp := eng.Query(asrs.QueryRequest{Query: q, A: 8, B: 8, TopK: 3})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if len(resp.Regions) != 3 {
		t.Fatalf("topk regions = %d", len(resp.Regions))
	}
	for i := 1; i < len(resp.Results); i++ {
		if resp.Results[i].Dist < resp.Results[i-1].Dist-1e-9 {
			t.Fatal("topk not ordered")
		}
	}
	// Excluding the best region must yield the second-best answer.
	excl := eng.Query(asrs.QueryRequest{Query: q, A: 8, B: 8, Exclude: []asrs.Rect{resp.Regions[0]}})
	if excl.Err != nil {
		t.Fatal(excl.Err)
	}
	if _, res := excl.Best(); res.Dist < resp.Results[0].Dist-1e-9 {
		t.Fatalf("excluded query beat the unrestricted optimum: %g < %g", res.Dist, resp.Results[0].Dist)
	}
}
