package asrs_test

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"asrs"
	"asrs/internal/dataset"
)

// ctxEngine builds an engine over a corpus big enough that a search
// spans many kernel items (so mid-flight cancellation has
// something to interrupt).
func ctxEngine(t *testing.T, opt asrs.EngineOptions) (*asrs.Engine, asrs.QueryRequest) {
	t.Helper()
	ds := dataset.Tweet(20000, 7)
	bounds := ds.Bounds()
	a, b := bounds.Width()/100, bounds.Height()/100
	q, err := dataset.F1(ds, a, b)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := asrs.NewEngine(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	return eng, asrs.QueryRequest{Query: q, A: a, B: b}
}

// TestQueryCtxExpiredDeadline: a context already past its deadline must
// fail the request with context.DeadlineExceeded without producing a
// region — counted as cancelled, and not as a search in the latency
// histogram.
func TestQueryCtxExpiredDeadline(t *testing.T) {
	eng, req := ctxEngine(t, asrs.EngineOptions{})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	resp := eng.QueryCtx(ctx, req)
	if !errors.Is(resp.Err, context.DeadlineExceeded) {
		t.Fatalf("Err = %v, want DeadlineExceeded", resp.Err)
	}
	if len(resp.Regions) != 0 {
		t.Fatalf("cancelled query still returned %d regions", len(resp.Regions))
	}
	st := eng.Stats()
	if st.Cancelled != 1 || st.Errors != 1 || st.Queries != 1 || st.LatencyCount != 0 {
		t.Fatalf("stats = %+v, want 1 cancelled/1 error/1 query/0 searches", st)
	}
}

// TestRequestCtxPrecedence: a per-request Ctx overrides the call-level
// context, in both directions.
func TestRequestCtxPrecedence(t *testing.T) {
	eng, req := ctxEngine(t, asrs.EngineOptions{})
	dead, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()

	// Live per-request ctx under a dead call ctx: the request runs.
	live := req
	live.Ctx = context.Background()
	if resp := eng.QueryCtx(dead, live); resp.Err != nil {
		t.Fatalf("live request ctx did not override dead call ctx: %v", resp.Err)
	}
	// Dead per-request ctx under a live call ctx: the request fails.
	expired := req
	expired.Ctx = dead
	if resp := eng.Query(expired); !errors.Is(resp.Err, context.DeadlineExceeded) {
		t.Fatalf("dead request ctx ignored: %v", resp.Err)
	}
}

// TestBatchDeadlineIsolation: one request with an expired deadline in a
// batch must come back as DeadlineExceeded while every other answer is
// bit-identical to an unbounded individual Query — a timed-out request
// never perturbs its batch peers.
func TestBatchDeadlineIsolation(t *testing.T) {
	eng, base := ctxEngine(t, asrs.EngineOptions{IndexGranularity: 32})
	dead, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()

	reqs := make([]asrs.QueryRequest, 5)
	for i := range reqs {
		reqs[i] = base
		// Distinct targets so dedup does not collapse the batch.
		tgt := append([]float64(nil), base.Query.Target...)
		tgt[0] += float64(i)
		reqs[i].Query.Target = tgt
	}
	reqs[2].Ctx = dead

	want := make([]asrs.QueryResponse, len(reqs))
	for i := range reqs {
		if i == 2 {
			continue
		}
		clean := reqs[i]
		clean.Ctx = nil
		want[i] = eng.Query(clean)
		if want[i].Err != nil {
			t.Fatal(want[i].Err)
		}
	}

	resp := eng.QueryBatchCtx(context.Background(), reqs)
	if !errors.Is(resp[2].Err, context.DeadlineExceeded) {
		t.Fatalf("request 2: Err = %v, want DeadlineExceeded", resp[2].Err)
	}
	for i := range resp {
		if i == 2 {
			continue
		}
		if resp[i].Err != nil {
			t.Fatalf("request %d failed: %v", i, resp[i].Err)
		}
		got, ref := resp[i].Results[0].Dist, want[i].Results[0].Dist
		if math.Float64bits(got) != math.Float64bits(ref) {
			t.Fatalf("request %d: batch answer %v != individual answer %v", i, got, ref)
		}
	}
}

// TestBatchDedupSurvivesMemberDeadline: among byte-identical members an
// expired one gets its own context error — whether it led the flight or
// not — while the live ones still get the real answer, from one search
// between them (held open so the second finds it in flight).
func TestBatchDedupSurvivesMemberDeadline(t *testing.T) {
	eng, base := ctxEngine(t, asrs.EngineOptions{})
	dead, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	ref := eng.Query(base)
	before := eng.Stats()
	holdSearches(t, 20*time.Millisecond)

	reqs := []asrs.QueryRequest{base, base, base}
	reqs[1].Ctx = dead // identical bytes, expired deadline

	resp := eng.QueryBatch(reqs)
	if !errors.Is(resp[1].Err, context.DeadlineExceeded) {
		t.Fatalf("expired member: Err = %v, want DeadlineExceeded", resp[1].Err)
	}
	for _, i := range []int{0, 2} {
		if resp[i].Err != nil {
			t.Fatalf("surviving member %d failed: %v", i, resp[i].Err)
		}
		if math.Float64bits(resp[i].Results[0].Dist) != math.Float64bits(ref.Results[0].Dist) {
			t.Fatalf("surviving member %d: %v != %v", i, resp[i].Results[0].Dist, ref.Results[0].Dist)
		}
	}
	st := eng.Stats()
	searches, joins := st.LatencyCount-before.LatencyCount, st.DedupHits-before.DedupHits
	if searches+joins != 2 || joins < 1 {
		t.Fatalf("%d searches and %d joins for 2 live members, want one of each", searches, joins)
	}
}

// TestBatchDedupGroupDeadline: identical members that are all dead each
// fail with their own context error, and nothing is searched for them.
func TestBatchDedupGroupDeadline(t *testing.T) {
	eng, base := ctxEngine(t, asrs.EngineOptions{})
	c1, cancel1 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel1()
	c2, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()

	reqs := []asrs.QueryRequest{base, base}
	reqs[0].Ctx = c1
	reqs[1].Ctx = c2
	resp := eng.QueryBatch(reqs)
	for i := range resp {
		if !errors.Is(resp[i].Err, context.DeadlineExceeded) {
			t.Fatalf("member %d: Err = %v, want DeadlineExceeded", i, resp[i].Err)
		}
	}
	if st := eng.Stats(); st.LatencyCount != 0 || st.Cancelled != 2 {
		t.Fatalf("%d searches observed and %d cancelled for two dead members, want 0 and 2", st.LatencyCount, st.Cancelled)
	}
}

// TestQueryCtxCancelMidFlight cancels a running search and checks it
// stops promptly with context.Canceled; a later query on the same
// engine still answers correctly (no poisoned caches or leaked state).
func TestQueryCtxCancelMidFlight(t *testing.T) {
	eng, req := ctxEngine(t, asrs.EngineOptions{})
	ref := eng.Query(req)
	if ref.Err != nil {
		t.Fatal(ref.Err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	var resp asrs.QueryResponse
	go func() {
		defer wg.Done()
		resp = eng.QueryCtx(ctx, req)
	}()
	cancel()
	wg.Wait()
	// The search may legitimately finish before observing the cancel;
	// both outcomes are valid, a wrong answer is not.
	if resp.Err != nil {
		if !errors.Is(resp.Err, context.Canceled) {
			t.Fatalf("Err = %v, want context.Canceled", resp.Err)
		}
	} else if math.Float64bits(resp.Results[0].Dist) != math.Float64bits(ref.Results[0].Dist) {
		t.Fatalf("completed-before-cancel answer differs: %v != %v", resp.Results[0].Dist, ref.Results[0].Dist)
	}

	after := eng.Query(req)
	if after.Err != nil {
		t.Fatal(after.Err)
	}
	if math.Float64bits(after.Results[0].Dist) != math.Float64bits(ref.Results[0].Dist) {
		t.Fatalf("post-cancel answer differs: %v != %v", after.Results[0].Dist, ref.Results[0].Dist)
	}
}
