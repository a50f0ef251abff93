package asrs_test

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asrs"
	"asrs/internal/dataset"
	"asrs/internal/faultinject"
	"asrs/internal/kernel"
)

// flightFixture builds a small corpus, a composite and n distinct plain
// requests whose fractional targets no region attains, so every search
// runs kernel items (where kernel.barrier.slow can hold it open).
func flightFixture(t *testing.T, n int) (*asrs.Dataset, *asrs.Composite, []asrs.QueryRequest) {
	t.Helper()
	ds := dataset.Random(2000, 100, 3)
	f, err := asrs.NewComposite(ds.Schema, asrs.AggSpec{Kind: asrs.Distribution, Attr: "cat"})
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]asrs.QueryRequest, n)
	for i := range reqs {
		q, err := asrs.QueryFromTarget(f, []float64{float64(i) + 1.5, 2.5, 3.5}, nil)
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = asrs.QueryRequest{Query: q, A: 10, B: 10}
	}
	return ds, f, reqs
}

// insertProbe returns a request no 1×1 region of flightFixture's corpus
// answers exactly — seven objects of one category — and the cluster that,
// once inserted, does: whoever sees the insert answers at distance 0.
func insertProbe(t *testing.T, f *asrs.Composite) (asrs.QueryRequest, []asrs.Object) {
	t.Helper()
	q, err := asrs.QueryFromTarget(f, []float64{0, 0, 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cluster := make([]asrs.Object, 7)
	for i := range cluster {
		cluster[i] = asrs.Object{
			Loc:    asrs.Point{X: 250 + 0.1*float64(i), Y: 250.5},
			Values: []asrs.Value{{Cat: 2}, {Num: 1}},
		}
	}
	return asrs.QueryRequest{Query: q, A: 1, B: 1}, cluster
}

// holdSearches stalls every kernel item's merge by d until the test
// ends: a search stays in flight long enough for others to meet it.
func holdSearches(t *testing.T, d time.Duration) {
	t.Helper()
	faultinject.Activate(faultinject.NewPlan(1,
		faultinject.Spec{Point: "kernel.barrier.slow", Action: faultinject.ActSleep, MaxEvery: 1, Delay: d}))
	t.Cleanup(faultinject.Deactivate)
}

// waitFor polls cond until it holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// waitFlights waits until the engine's current view has exactly the given
// searches in flight and requests joined to them.
func waitFlights(t *testing.T, eng *asrs.Engine, flights, joiners int) {
	t.Helper()
	waitFor(t, "flights in progress", func() bool {
		f, j := eng.Flights()
		return f == flights && j == joiners
	})
}

func sameAnswer(t *testing.T, tag string, got, want asrs.QueryResponse) {
	t.Helper()
	if got.Err != nil {
		t.Errorf("%s: %v", tag, got.Err)
		return
	}
	respEqual(t, tag, 0, got, want)
	if math.Float64bits(got.Results[0].Dist) != math.Float64bits(want.Results[0].Dist) {
		t.Errorf("%s: dist %v != solo %v", tag, got.Results[0].Dist, want.Results[0].Dist)
	}
}

// TestFlightJoinByCounts: with every slot held by a distinct search, 16
// identical requests — 16 Query calls, or the members of one QueryBatch —
// cost one search — P+1 executed, 15 joined — and every one of the 16
// gets the solo answer in buffers of its own.
func TestFlightJoinByCounts(t *testing.T) {
	t.Run("queries", func(t *testing.T) { joinByCounts(t, false) })
	t.Run("batch", func(t *testing.T) { joinByCounts(t, true) })
}

func joinByCounts(t *testing.T, batched bool) {
	const P, burst = 2, 16
	ds, _, reqs := flightFixture(t, P+1)
	eng, err := asrs.NewEngine(ds, asrs.EngineOptions{BatchParallelism: P, Search: asrs.Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	want := eng.Query(reqs[P])
	if want.Err != nil {
		t.Fatal(want.Err)
	}
	before := eng.Stats()
	holdSearches(t, 20*time.Millisecond)

	var wg sync.WaitGroup
	for i := 0; i < P; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if resp := eng.Query(reqs[i]); resp.Err != nil {
				t.Errorf("blocker %d: %v", i, resp.Err)
			}
		}(i)
	}
	waitFlights(t, eng, P, 0)
	resps := make([]asrs.QueryResponse, burst)
	if batched {
		copies := make([]asrs.QueryRequest, burst)
		for k := range copies {
			copies[k] = reqs[P]
		}
		resps = eng.QueryBatch(copies)
	} else {
		for k := range resps {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				resps[k] = eng.Query(reqs[P])
			}(k)
		}
	}
	wg.Wait()

	st := eng.Stats()
	if got := st.LatencyCount - before.LatencyCount; got != P+1 {
		t.Errorf("executed %d searches, want %d", got, P+1)
	}
	if got := st.DedupHits - before.DedupHits; got != burst-1 {
		t.Errorf("joined %d requests, want %d", got, burst-1)
	}
	if got := st.Queries - before.Queries; got != P+burst {
		t.Errorf("counted %d queries, want %d", got, P+burst)
	}
	reps := map[*float64]int{&want.Results[0].Rep[0]: -1}
	for k := range resps {
		sameAnswer(t, "identical request", resps[k], want)
		if resps[k].Err != nil {
			continue
		}
		p := &resps[k].Results[0].Rep[0]
		if other, dup := reps[p]; dup {
			t.Errorf("responses %d and %d alias one Rep", k, other)
		}
		reps[p] = k
	}
	if f, j := eng.Flights(); f != 0 || j != 0 {
		t.Errorf("%d flights, %d joiners retained after completion", f, j)
	}
}

// TestFlightPerEpoch: a request issued after an acknowledged insert is
// never answered by a search that started before it — it runs its own,
// on the new epoch, and sees the inserted objects.
func TestFlightPerEpoch(t *testing.T) {
	ds, f, _ := flightFixture(t, 0)
	eng, err := asrs.NewEngine(ds, asrs.EngineOptions{Search: asrs.Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	req, cluster := insertProbe(t, f)
	solo := eng.Query(req)
	if solo.Err != nil || solo.Results[0].Dist == 0 {
		t.Fatalf("seed corpus already answers the probe exactly: %+v", solo)
	}
	before := eng.Stats()
	holdSearches(t, 20*time.Millisecond)

	var wg sync.WaitGroup
	var first asrs.QueryResponse
	wg.Add(1)
	go func() {
		defer wg.Done()
		first = eng.Query(req)
	}()
	waitFlights(t, eng, 1, 0)
	if err := eng.InsertBatch(cluster); err != nil {
		t.Fatal(err)
	}
	second := eng.Query(req)
	wg.Wait()

	sameAnswer(t, "request before the insert", first, solo)
	if second.Err != nil || second.Results[0].Dist != 0 {
		t.Fatalf("request after the insert did not see it: %+v", second)
	}
	st := eng.Stats()
	if st.LatencyCount-before.LatencyCount != 2 || st.DedupHits != before.DedupHits {
		t.Fatalf("searches +%d, joined +%d; want 2 searches and nothing joined across epochs",
			st.LatencyCount-before.LatencyCount, st.DedupHits-before.DedupHits)
	}
}

// TestFlightDeadlines: nobody inherits someone else's context. A leader
// cancelled mid-search reports its own error while its joiner goes on to
// search and answers correctly; a cancelled joiner returns at once and
// disturbs neither the leader nor the other joiners.
//
// The leader is cancelled while its first kernel item is held, so the
// kernel's context check before the second item is what stops it: the
// fixture's search must run more than one item, which the test asserts
// rather than assumes (a search that ends in its first item finishes
// before any cancel can land).
func TestFlightDeadlines(t *testing.T) {
	ds, _, reqs := flightFixture(t, 1)
	eng, err := asrs.NewEngine(ds, asrs.EngineOptions{Search: asrs.Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	want := eng.Query(reqs[0])
	if want.Err != nil {
		t.Fatal(want.Err)
	}
	if _, st := asrs.Answer(ds, nil, reqs[0]); st.DS.Discretizations < 2 {
		t.Fatalf("the fixture search runs %d discretizations: a cancel cannot land between its items", st.DS.Discretizations)
	}
	run := func(wg *sync.WaitGroup, ctx context.Context, out *asrs.QueryResponse) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			*out = eng.QueryCtx(ctx, reqs[0])
		}()
	}

	t.Run("leader cancelled", func(t *testing.T) {
		// One hold far longer than the waits below: the cancel lands
		// inside the leader's first item. The hold is lifted once the
		// leader has returned, and the joiner searches unheld.
		holdSearches(t, 500*time.Millisecond)
		before := eng.Stats()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var led, wg sync.WaitGroup
		var leader, joiner asrs.QueryResponse
		run(&led, ctx, &leader)
		waitFlights(t, eng, 1, 0)
		run(&wg, context.Background(), &joiner)
		waitFlights(t, eng, 1, 1)
		cancel()
		led.Wait()
		faultinject.Deactivate()
		wg.Wait()
		if !errors.Is(leader.Err, context.Canceled) {
			t.Fatalf("leader Err = %v, want context.Canceled", leader.Err)
		}
		sameAnswer(t, "joiner of a cancelled leader", joiner, want)
		st := eng.Stats()
		if st.DedupHits != before.DedupHits || st.Cancelled-before.Cancelled != 1 {
			t.Fatalf("joined +%d, cancelled +%d; want 0 and 1", st.DedupHits-before.DedupHits, st.Cancelled-before.Cancelled)
		}
	})

	t.Run("joiner cancelled", func(t *testing.T) {
		holdSearches(t, 20*time.Millisecond)
		before := eng.Stats()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var wg, gone sync.WaitGroup
		var leader, quitter asrs.QueryResponse
		stayers := make([]asrs.QueryResponse, 2)
		run(&wg, context.Background(), &leader)
		waitFlights(t, eng, 1, 0)
		run(&gone, ctx, &quitter)
		for i := range stayers {
			run(&wg, context.Background(), &stayers[i])
		}
		waitFlights(t, eng, 1, 3)
		cancel()
		gone.Wait()
		if !errors.Is(quitter.Err, context.Canceled) {
			t.Fatalf("cancelled joiner Err = %v, want context.Canceled", quitter.Err)
		}
		if fl, _ := eng.Flights(); fl != 1 {
			t.Fatalf("a joiner leaving ended the search it had joined (%d flights)", fl)
		}
		wg.Wait()
		sameAnswer(t, "leader", leader, want)
		for i := range stayers {
			sameAnswer(t, "remaining joiner", stayers[i], want)
		}
		st := eng.Stats()
		if st.DedupHits-before.DedupHits != 2 || st.LatencyCount-before.LatencyCount != 1 {
			t.Fatalf("joined +%d, searches +%d; want 2 and 1", st.DedupHits-before.DedupHits, st.LatencyCount-before.LatencyCount)
		}
	})
}

// TestFlightLeaderFails: a leader that fails shares nothing and strands
// nobody. With kernel.process.panic armed every search ends in a typed
// *kernel.PanicError — the joiners go round again and fail on their own —
// and with a selection function that panics on the search goroutine
// itself the leader's deferred clean-up still wakes its joiner, who then
// answers; the same panic on a batch member's goroutine becomes that
// member's error and its peers answer. Either way no goroutine is left
// waiting and the view's flight table is empty.
func TestFlightLeaderFails(t *testing.T) {
	settle := func(t *testing.T, eng *asrs.Engine, goroutines int) {
		t.Helper()
		waitFor(t, "goroutines to settle", func() bool { return runtime.NumGoroutine() <= goroutines })
		if f, j := eng.Flights(); f != 0 || j != 0 {
			t.Fatalf("%d flights, %d joiners left in the table", f, j)
		}
	}

	t.Run("kernel panic", func(t *testing.T) {
		ds, _, reqs := flightFixture(t, 1)
		eng, err := asrs.NewEngine(ds, asrs.EngineOptions{Search: asrs.Options{Workers: 1}})
		if err != nil {
			t.Fatal(err)
		}
		want := eng.Query(reqs[0])
		if want.Err != nil {
			t.Fatal(want.Err)
		}
		goroutines := runtime.NumGoroutine()
		faultinject.Activate(faultinject.NewPlan(1,
			faultinject.Spec{Point: "kernel.barrier.slow", Action: faultinject.ActSleep, MaxEvery: 1, Delay: 20 * time.Millisecond},
			faultinject.Spec{Point: "kernel.process.panic", Action: faultinject.ActPanic, MaxEvery: 1}))
		defer faultinject.Deactivate()
		resps := make([]asrs.QueryResponse, 4)
		var wg sync.WaitGroup
		for k := range resps {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				resps[k] = eng.Query(reqs[0])
			}(k)
		}
		wg.Wait()
		for k := range resps {
			var pe *kernel.PanicError
			if !errors.As(resps[k].Err, &pe) {
				t.Fatalf("request %d: Err = %v, want a *kernel.PanicError", k, resps[k].Err)
			}
		}
		if st := eng.Stats(); st.DedupHits != 0 {
			t.Fatalf("%d requests copied a failed search's answer", st.DedupHits)
		}
		faultinject.Deactivate()
		settle(t, eng, goroutines)
		sameAnswer(t, "query after the fault", eng.Query(reqs[0]), want)
	})

	t.Run("panic on the search goroutine", func(t *testing.T) {
		ds := dataset.Random(2000, 100, 3)
		var armed atomic.Bool
		entered, release := make(chan struct{}), make(chan struct{})
		f, err := asrs.NewComposite(ds.Schema, asrs.AggSpec{
			Kind: asrs.Distribution, Attr: "cat",
			Select: func(*asrs.Object) bool {
				if armed.CompareAndSwap(true, false) {
					close(entered)
					<-release
					panic("selector panicked")
				}
				return true
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		q, err := asrs.QueryFromTarget(f, []float64{1.5, 2.5, 3.5}, nil)
		if err != nil {
			t.Fatal(err)
		}
		req := asrs.QueryRequest{Query: q, A: 10, B: 10}
		// No pyramid: each search evaluates the selection function itself.
		eng, err := asrs.NewEngine(ds, asrs.EngineOptions{DisablePyramid: true, Search: asrs.Options{Workers: 1}})
		if err != nil {
			t.Fatal(err)
		}
		want := eng.Query(req)
		if want.Err != nil {
			t.Fatal(want.Err)
		}
		goroutines := runtime.NumGoroutine()
		armed.Store(true)
		var wg sync.WaitGroup
		var panicked any
		var joiner asrs.QueryResponse
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { panicked = recover() }()
			eng.Query(req)
		}()
		<-entered
		wg.Add(1)
		go func() {
			defer wg.Done()
			joiner = eng.Query(req)
		}()
		waitFlights(t, eng, 1, 1)
		close(release)
		wg.Wait()
		if panicked == nil {
			t.Fatal("the leader's panic did not reach its caller")
		}
		sameAnswer(t, "joiner of a panicked leader", joiner, want)
		settle(t, eng, goroutines)
	})

	t.Run("panic on a batch member's goroutine", func(t *testing.T) {
		ds, _, reqs := flightFixture(t, 2)
		var armed atomic.Bool
		f, err := asrs.NewComposite(ds.Schema, asrs.AggSpec{
			Kind: asrs.Distribution, Attr: "cat",
			Select: func(*asrs.Object) bool {
				if armed.Load() {
					panic("selector panicked")
				}
				return true
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		bad := reqs[0]
		bad.Query.F = f
		eng, err := asrs.NewEngine(ds, asrs.EngineOptions{BatchParallelism: 2, DisablePyramid: true, Search: asrs.Options{Workers: 1}})
		if err != nil {
			t.Fatal(err)
		}
		want := []asrs.QueryResponse{eng.Query(reqs[0]), eng.Query(reqs[1])}
		goroutines := runtime.NumGoroutine()
		armed.Store(true)
		resps := eng.QueryBatch([]asrs.QueryRequest{reqs[0], bad, reqs[1]})
		armed.Store(false)
		var pe *kernel.PanicError
		if !errors.As(resps[1].Err, &pe) || pe.Value != "selector panicked" || len(pe.Stack) == 0 {
			t.Fatalf("panicking member: Err = %v, want a *kernel.PanicError with the value and a stack", resps[1].Err)
		}
		sameAnswer(t, "peer before the panicking member", resps[0], want[0])
		sameAnswer(t, "peer after the panicking member", resps[2], want[1])
		settle(t, eng, goroutines)
		if st := eng.Stats(); st.Errors != 1 {
			t.Fatalf("%d errors counted for one failed member", st.Errors)
		}
	})
}

// TestFlightPinnedOptionsNeverJoin: a request that pins its own Options
// (δ) neither joins an identical search in flight nor can be joined —
// sent beside it, or as a member of the same batch.
func TestFlightPinnedOptionsNeverJoin(t *testing.T) {
	ds, _, reqs := flightFixture(t, 1)
	eng, err := asrs.NewEngine(ds, asrs.EngineOptions{Search: asrs.Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	want := eng.Query(reqs[0])
	if want.Err != nil {
		t.Fatal(want.Err)
	}
	before := eng.Stats()
	holdSearches(t, 20*time.Millisecond)
	pinned := reqs[0]
	opt := eng.SearchOptions()
	pinned.Options = &opt

	var wg sync.WaitGroup
	resps := make([]asrs.QueryResponse, 3)
	for k, req := range []asrs.QueryRequest{reqs[0], pinned, pinned} {
		wg.Add(1)
		go func(k int, req asrs.QueryRequest) {
			defer wg.Done()
			resps[k] = eng.Query(req)
		}(k, req)
		if k == 0 {
			waitFlights(t, eng, 1, 0)
		}
	}
	wg.Wait()
	resps = append(resps, eng.QueryBatch([]asrs.QueryRequest{reqs[0], pinned, pinned})...)
	for k := range resps {
		sameAnswer(t, "request", resps[k], want)
	}
	st := eng.Stats()
	if st.LatencyCount-before.LatencyCount != 6 || st.DedupHits != before.DedupHits {
		t.Fatalf("searches +%d, joined +%d; want 6 searches, nothing joined",
			st.LatencyCount-before.LatencyCount, st.DedupHits-before.DedupHits)
	}
}

// TestBatchQueuesOnOneView: a batch spends the engine's one slot budget,
// on the one view it captured. With the P slots held — by searches whose
// selection function parks them — all 2P members of a batch queue and
// none runs until a holder ends; a cluster inserted while they queue is
// seen by no member, and by the next call.
func TestBatchQueuesOnOneView(t *testing.T) {
	const P = 2
	ds, f, reqs := flightFixture(t, 2*P-1)
	probe, cluster := insertProbe(t, f)
	reqs = append(reqs, probe)
	var hold atomic.Bool
	parked, release := make(chan struct{}), make(chan struct{})
	unpark := sync.OnceFunc(func() { hold.Store(false); close(release) })
	defer unpark()
	fb, err := asrs.NewComposite(ds.Schema, asrs.AggSpec{Kind: asrs.Count, Select: func(*asrs.Object) bool {
		if hold.Load() {
			parked <- struct{}{}
			<-release
		}
		return true
	}})
	if err != nil {
		t.Fatal(err)
	}
	// No pyramid: each search evaluates the selection function itself.
	eng, err := asrs.NewEngine(ds, asrs.EngineOptions{BatchParallelism: P, DisablePyramid: true, Search: asrs.Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	want := eng.QueryBatch(reqs)
	if last := want[len(want)-1]; last.Err != nil || last.Results[0].Dist == 0 {
		t.Fatalf("seed corpus already answers the probe exactly: %+v", last)
	}
	hold.Store(true)
	var wg sync.WaitGroup
	for i := 0; i < P; i++ {
		q, err := asrs.QueryFromTarget(fb, []float64{float64(i) + 0.5}, nil)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if resp := eng.Query(asrs.QueryRequest{Query: q, A: 10, B: 10}); resp.Err != nil {
				t.Errorf("slot holder: %v", resp.Err)
			}
		}()
		<-parked
	}
	before := eng.Stats()
	var resps []asrs.QueryResponse
	done := make(chan struct{})
	go func() {
		defer close(done)
		resps = eng.QueryBatch(reqs)
	}()
	waitFor(t, "every member to queue", func() bool {
		select {
		case <-done:
			t.Fatal("the batch ran while every slot was held")
		default:
		}
		free, queued := eng.SlotState()
		return free == 0 && queued == 2*P
	})
	if err := eng.InsertBatch(cluster); err != nil {
		t.Fatal(err)
	}
	unpark()
	<-done
	wg.Wait()
	for i := range resps {
		sameAnswer(t, "member of a batch that queued through an insert", resps[i], want[i])
	}
	if after := eng.Query(probe); after.Err != nil || after.Results[0].Dist != 0 {
		t.Fatalf("the call after the batch did not see the insert: %+v", after)
	}
	if got := eng.Stats().SlotWaits - before.SlotWaits; got != 2*P {
		t.Errorf("SlotWaits +%d, want %d", got, 2*P)
	}
}

// TestSlotsArrivalOrder: 3P acquirers queue behind P held slots; each
// release admits exactly one of them, in the order they arrived, so at
// most P ever hold a slot; one that gives up leaves the line without
// taking a slot with it.
func TestSlotsArrivalOrder(t *testing.T) {
	const P = 2
	s := asrs.NewSlots(P)
	ctx := context.Background()
	for i := 0; i < P; i++ {
		if waited, err := s.Acquire(ctx); waited || err != nil {
			t.Fatalf("free slot %d: waited=%v err=%v", i, waited, err)
		}
	}
	queued := func() int { _, q := s.State(); return q }
	var admitted atomic.Int64
	order := make([]int64, 3*P)
	quit, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	for i := range order {
		c := ctx
		if i == 1 {
			c = quit // the second in line will give up
		}
		wg.Add(1)
		go func(i int, c context.Context) {
			defer wg.Done()
			waited, err := s.Acquire(c)
			if !waited {
				t.Errorf("waiter %d did not queue", i)
			}
			if err != nil {
				order[i] = -1
				return
			}
			order[i] = admitted.Add(1)
		}(i, c)
		waitFor(t, "the waiter to queue", func() bool { return queued() == i+1 })
	}
	cancel()
	waitFor(t, "the quitter to leave the line", func() bool { return queued() == len(order)-1 })
	// Each release — of a slot this test took, then of the ones the
	// admitted waiters hold — lets exactly the next in line through.
	for n := 1; n < len(order); n++ {
		s.Release()
		waitFor(t, "the next waiter to be admitted", func() bool { return admitted.Load() == int64(n) })
		if q := queued(); q != len(order)-1-n {
			t.Fatalf("after %d releases %d wait, want %d", n, q, len(order)-1-n)
		}
	}
	wg.Wait()
	next := int64(1)
	for i, got := range order {
		if i == 1 {
			if got != -1 {
				t.Errorf("cancelled waiter was admitted (%d)", got)
			}
			continue
		}
		if got != next {
			t.Errorf("waiter %d admitted %d-th, want %d-th: %v", i, got, next, order)
		}
		next++
	}
	// Every slot comes back: the queue is empty, so P releases free P.
	for i := 0; i < P; i++ {
		s.Release()
	}
	if free, q := s.State(); free != P || q != 0 {
		t.Fatalf("%d free slots and %d waiting after everyone left, want %d and 0", free, q, P)
	}
}

// TestEngineQueuesForSlots: 4P distinct requests on P slots all answer
// correctly, 3P of them after queuing — visible in SlotWaits/SlotWaitMs —
// and with one slot they finish in the order they arrived.
func TestEngineQueuesForSlots(t *testing.T) {
	const P = 1
	ds, _, reqs := flightFixture(t, 4*P)
	eng, err := asrs.NewEngine(ds, asrs.EngineOptions{BatchParallelism: P, Search: asrs.Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]asrs.QueryResponse, len(reqs))
	for i, req := range reqs {
		if want[i] = eng.Query(req); want[i].Err != nil {
			t.Fatal(want[i].Err)
		}
	}
	before := eng.Stats()
	holdSearches(t, 5*time.Millisecond)
	var finished atomic.Int64
	order := make([]int64, len(reqs))
	resps := make([]asrs.QueryResponse, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i] = eng.Query(reqs[i])
			order[i] = finished.Add(1)
		}(i)
		// One takes a slot or joins the queue before the next arrives; one
		// leaves the queue for each that finishes.
		waitFor(t, "the request to take its place", func() bool {
			free, queued := eng.SlotState()
			if i < P {
				return free == P-(i+1)
			}
			return queued == i+1-P-int(finished.Load())
		})
	}
	wg.Wait()
	for i := range resps {
		sameAnswer(t, "queued request", resps[i], want[i])
		if order[i] != int64(i+1) {
			t.Errorf("request %d finished %d-th: %v", i, order[i], order)
		}
	}
	st := eng.Stats()
	if got := st.SlotWaits - before.SlotWaits; got != 3*P {
		t.Errorf("SlotWaits +%d, want %d", got, 3*P)
	}
	if st.SlotWaitMs <= before.SlotWaitMs {
		t.Errorf("SlotWaitMs did not grow: %v", st.SlotWaitMs)
	}
}
