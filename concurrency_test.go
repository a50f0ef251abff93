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
// return instead of livelocking (regression: the kernel's pop loop once
// spun forever when the pruning threshold was NaN).
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
		_, _, _, _ = asrs.Search(ds, 6, 6, q, asrs.Options{})
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
