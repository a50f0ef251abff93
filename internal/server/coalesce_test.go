package server_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"asrs"
	"asrs/internal/dataset"
	"asrs/internal/server"
)

// serveQueries builds k distinct requests: overlapping query-by-example
// extents sharing one (a, b) shape, with inflated virtual targets so
// every request runs a real search.
func serveQueries(ds *asrs.Dataset, f *asrs.Composite, k int, seed int64) ([]asrs.QueryRequest, error) {
	bounds := ds.Bounds()
	a := bounds.Width() / 32
	b := bounds.Height() / 32
	rng := rand.New(rand.NewSource(seed ^ 0x5e12e))
	reqs := make([]asrs.QueryRequest, k)
	for i := range reqs {
		cx := bounds.MinX + bounds.Width()*(0.15+0.65*rng.Float64())
		cy := bounds.MinY + bounds.Height()*(0.15+0.65*rng.Float64())
		rq := asrs.Rect{MinX: cx, MinY: cy, MaxX: cx + a, MaxY: cy + b}
		q, err := asrs.QueryFromRegion(ds, f, nil, rq)
		if err != nil {
			return nil, err
		}
		for j := range q.Target {
			q.Target[j] = math.Trunc(q.Target[j]*1.1) + 0.5
		}
		reqs[i] = asrs.QueryRequest{Query: q, A: a, B: b}
	}
	return reqs, nil
}

// testCorpus builds the shared serving fixture once: a Singapore-shaped
// corpus, the serving composite, and a request mix of overlapping
// query-by-example extents expanded with exact repeats (the dedup-heavy
// shape real serving traffic has).
var testCorpus struct {
	once sync.Once
	ds   *asrs.Dataset
	f    *asrs.Composite
	reqs []asrs.QueryRequest
	err  error
}

func corpus(t *testing.T) (*asrs.Dataset, *asrs.Composite, []asrs.QueryRequest) {
	t.Helper()
	testCorpus.once.Do(func() {
		ds := dataset.SingaporeScaled(8000, 11)
		f, err := asrs.NewComposite(ds.Schema,
			asrs.AggSpec{Kind: asrs.Distribution, Attr: "category"},
			asrs.AggSpec{Kind: asrs.Count},
		)
		if err != nil {
			testCorpus.err = err
			return
		}
		distinct, err := serveQueries(ds, f, 16, 11)
		if err != nil {
			testCorpus.err = err
			return
		}
		// A third of the mix repeats earlier requests (popular queries),
		// exercising the dedup pass.
		rng := rand.New(rand.NewSource(11))
		reqs := make([]asrs.QueryRequest, 24)
		next := 0
		for i := range reqs {
			if i > 0 && i%3 == 2 {
				reqs[i] = reqs[rng.Intn(i)]
				continue
			}
			reqs[i] = distinct[next%len(distinct)]
			next++
		}
		testCorpus.ds, testCorpus.f, testCorpus.reqs = ds, f, reqs
	})
	if testCorpus.err != nil {
		t.Fatal(testCorpus.err)
	}
	return testCorpus.ds, testCorpus.f, testCorpus.reqs
}

// TestCoalescerBitIdentical is the coalescer property test: N
// concurrent clients submitting through the window collector must get
// distances bit-identical to N sequential Engine.Query calls — for any
// coalescing window, batch cap and worker count, including window=0
// (no coalescing at all).
func TestCoalescerBitIdentical(t *testing.T) {
	ds, _, reqs := corpus(t)

	// Sequential reference on a pristine engine.
	refEng, err := asrs.NewEngine(ds, asrs.EngineOptions{IndexGranularity: 32})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(reqs))
	for i, req := range reqs {
		resp := refEng.Query(req)
		if resp.Err != nil {
			t.Fatal(resp.Err)
		}
		want[i] = resp.Results[0].Dist
	}

	cases := []struct {
		window   time.Duration
		maxBatch int
		workers  int
	}{
		{0, 0, 1},                      // no coalescing
		{200 * time.Microsecond, 2, 1}, // tiny windows, tiny batches
		{2 * time.Millisecond, 8, 1},
		{5 * time.Millisecond, 64, 2}, // one wide batch, multi-worker kernel
	}
	for _, tc := range cases {
		name := fmt.Sprintf("window=%s/batch=%d/workers=%d", tc.window, tc.maxBatch, tc.workers)
		t.Run(name, func(t *testing.T) {
			eng, err := asrs.NewEngine(ds, asrs.EngineOptions{
				IndexGranularity: 32,
				Search:           asrs.Options{Workers: tc.workers},
			})
			if err != nil {
				t.Fatal(err)
			}
			coal := server.NewCoalescer(context.Background(), eng, tc.window, tc.maxBatch)
			defer coal.Close()

			got := make([]float64, len(reqs))
			errs := make([]error, len(reqs))
			var wg sync.WaitGroup
			for i := range reqs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					resp := <-coal.Submit(reqs[i])
					if resp.Err != nil {
						errs[i] = resp.Err
						return
					}
					got[i] = resp.Results[0].Dist
				}(i)
			}
			wg.Wait()
			for i := range reqs {
				if errs[i] != nil {
					t.Fatalf("client %d failed: %v", i, errs[i])
				}
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("client %d: coalesced answer %v != sequential %v", i, got[i], want[i])
				}
			}
			if tc.window > 0 {
				st := coal.Stats()
				if st.Batches == 0 || st.BatchedRequests != int64(len(reqs)) {
					t.Fatalf("coalescer stats inconsistent: %+v", st)
				}
			}
		})
	}
}

// TestCoalescerMaxBatchFlush: a burst larger than MaxBatch must flush
// early instead of waiting out a long window.
func TestCoalescerMaxBatchFlush(t *testing.T) {
	ds, _, reqs := corpus(t)
	eng, err := asrs.NewEngine(ds, asrs.EngineOptions{IndexGranularity: 32})
	if err != nil {
		t.Fatal(err)
	}
	// A window far longer than the test timeout: only the MaxBatch path
	// can deliver in time.
	coal := server.NewCoalescer(context.Background(), eng, time.Hour, 4)
	defer coal.Close()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := <-coal.Submit(reqs[i])
			if resp.Err != nil {
				t.Errorf("client %d: %v", i, resp.Err)
			}
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("full batch never flushed before the window elapsed")
	}
	if st := coal.Stats(); st.FullFlushes != 1 {
		t.Fatalf("full flushes = %d, want 1", st.FullFlushes)
	}
}

// TestCoalescerCloseFlushesPending: requests sitting in an open window
// at Close time must still get answers (graceful drain), and submits
// after Close must be refused with a closed channel.
func TestCoalescerCloseFlushesPending(t *testing.T) {
	ds, _, reqs := corpus(t)
	eng, err := asrs.NewEngine(ds, asrs.EngineOptions{IndexGranularity: 32})
	if err != nil {
		t.Fatal(err)
	}
	coal := server.NewCoalescer(context.Background(), eng, time.Hour, 64)
	ch := coal.Submit(reqs[0])
	coal.Close()
	select {
	case resp, ok := <-ch:
		if !ok {
			t.Fatal("pending request dropped by Close instead of flushed")
		}
		if resp.Err != nil {
			t.Fatalf("drained request failed: %v", resp.Err)
		}
	default:
		t.Fatal("Close returned before delivering the pending response")
	}
	if _, ok := <-coal.Submit(reqs[0]); ok {
		t.Fatal("submit after Close delivered a response")
	}
	if st := coal.Stats(); st.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", st.Rejected)
	}
}
