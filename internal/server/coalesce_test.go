package server_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asrs"
	"asrs/internal/dataset"
	"asrs/internal/faultinject"
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

// TestCoalescerBitIdentical is the coalescer property test: concurrent
// clients submitting through the coalescer must get distances
// bit-identical to sequential Engine.Query calls — for any number of
// clients and kernel workers, and when a client fires a burst of identical
// requests at once (which join one search in the engine).
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

	const burst = 4 // every sixth request is sent this many times at once
	for _, tc := range []struct{ clients, workers int }{{4, 1}, {4, 2}, {24, 1}, {24, 2}} {
		t.Run(fmt.Sprintf("clients=%d/workers=%d", tc.clients, tc.workers), func(t *testing.T) {
			eng, err := asrs.NewEngine(ds, asrs.EngineOptions{
				IndexGranularity: 32,
				Search:           asrs.Options{Workers: tc.workers},
			})
			if err != nil {
				t.Fatal(err)
			}
			coal := server.NewCoalescer(context.Background(), eng)
			defer coal.Close()

			var submitted atomic.Int64
			var wg sync.WaitGroup
			for c := 0; c < tc.clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := c; i < len(reqs); i += tc.clients {
						n := 1
						if i%6 == 0 {
							n = burst
						}
						chans := make([]<-chan asrs.QueryResponse, n)
						for k := range chans {
							chans[k] = coal.Submit(reqs[i])
						}
						submitted.Add(int64(n))
						for _, ch := range chans {
							resp := <-ch
							if resp.Err != nil {
								t.Errorf("request %d failed: %v", i, resp.Err)
								continue
							}
							if got := resp.Results[0].Dist; math.Float64bits(got) != math.Float64bits(want[i]) {
								t.Errorf("request %d: dispatched answer %v != sequential %v", i, got, want[i])
							}
						}
					}
				}(c)
			}
			wg.Wait()
			n := submitted.Load()
			if st := coal.Stats(); st.Batches != n || st.BatchedRequests != n || st.Delivered != n {
				t.Fatalf("coalescer stats after %d submits: %+v", n, st)
			}
			if es := eng.Stats(); es.LatencyCount+es.DedupHits != n {
				t.Fatalf("%d searches + %d joined != %d submits", es.LatencyCount, es.DedupHits, n)
			}
		})
	}
}

// TestCoalescerCloseFlushesPending: Close waits for every dispatched
// search to deliver (graceful drain) — a request still held at its
// dispatch when Close is called gets its answer, not an error — and
// submits after Close are refused with a closed channel.
func TestCoalescerCloseFlushesPending(t *testing.T) {
	ds, _, reqs := corpus(t)
	eng, err := asrs.NewEngine(ds, asrs.EngineOptions{IndexGranularity: 32})
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Activate(faultinject.NewPlan(5,
		faultinject.Spec{Point: "server.dispatch.slow", Action: faultinject.ActSleep, MaxEvery: 1, Delay: 50 * time.Millisecond}))
	defer faultinject.Deactivate()
	coal := server.NewCoalescer(context.Background(), eng)
	ch := coal.Submit(reqs[0])
	coal.Close()
	select {
	case resp, ok := <-ch:
		if !ok {
			t.Fatal("pending request dropped by Close instead of answered")
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
