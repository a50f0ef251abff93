package kernel

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asrs/internal/asp"
	"asrs/internal/geom"
)

func TestHeapSortsRandomInput(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(200)
		vals := make([]float64, n)
		h := NewHeap[float64](func(a, b float64) bool { return a < b })
		for i := range vals {
			vals[i] = rng.NormFloat64()
			h.Push(vals[i])
		}
		sort.Float64s(vals)
		for i := 0; i < n; i++ {
			if got := h.Pop(); got != vals[i] {
				t.Fatalf("trial %d: pop %d = %g, want %g", trial, i, got, vals[i])
			}
		}
		if h.Len() != 0 {
			t.Fatalf("heap not empty: %d", h.Len())
		}
	}
}

func TestHeapInterleavedOps(t *testing.T) {
	h := NewHeap[int](func(a, b int) bool { return a < b })
	h.Push(5)
	h.Push(1)
	h.Push(3)
	if got := h.Pop(); got != 1 {
		t.Fatalf("pop = %d, want 1", got)
	}
	h.Push(0)
	if got := h.Peek(); got != 0 {
		t.Fatalf("peek = %d, want 0", got)
	}
	h.Reset()
	if h.Len() != 0 {
		t.Fatal("reset did not empty the heap")
	}
}

func TestBetterIsTotalOrder(t *testing.T) {
	mk := func(d, x, y float64) asp.Result {
		return asp.Result{Dist: d, Point: geom.Point{X: x, Y: y}}
	}
	cases := []struct {
		a, b asp.Result
		want bool
	}{
		{mk(1, 0, 0), mk(2, 0, 0), true},
		{mk(2, 0, 0), mk(1, 0, 0), false},
		{mk(1, -1, 0), mk(1, 0, 0), true},
		{mk(1, 0, 2), mk(1, 0, 3), true},
		{mk(1, 0, 3), mk(1, 0, 3), false}, // irreflexive
	}
	for i, c := range cases {
		if got := Better(c.a, c.b); got != c.want {
			t.Fatalf("case %d: Better = %v, want %v", i, got, c.want)
		}
	}
}

func TestBoundConcurrentOffers(t *testing.T) {
	b := NewBound(0, asp.Result{Dist: 1e18})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			rep := make([]float64, 2)
			for i := 0; i < 1000; i++ {
				d := rng.Float64() * 100
				rep[0] = d
				b.Offer(asp.Result{Dist: d, Point: geom.Point{X: d}, Rep: rep})
			}
		}(g)
	}
	wg.Wait()
	best := b.Best()
	if best.Dist >= 1e18 {
		t.Fatal("no offer landed")
	}
	if best.Rep[0] != best.Dist {
		t.Fatalf("rep not snapshotted at offer time: rep=%g dist=%g", best.Rep[0], best.Dist)
	}
	// A worse offer must not displace the winner.
	if b.Offer(asp.Result{Dist: best.Dist + 1}) {
		t.Fatal("worse offer accepted")
	}
}

func TestBoundApproximateThreshold(t *testing.T) {
	b := NewBound(0.25, asp.Result{Dist: 10})
	if got, want := b.Threshold(), 10/1.25; got != want {
		t.Fatalf("threshold = %g, want %g", got, want)
	}
}

// TestRunDeterministicAcrossWorkers drives the kernel with a synthetic
// branch-and-bound workload (interval subdivision minimizing a bumpy
// function) and asserts the final answer is bit-identical for every
// worker count.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	f := func(x float64) float64 {
		v := (x - 0.6180339) * (x - 0.6180339)
		return v + 0.1*(1+sin13(x))
	}
	solve := func(workers, batch int) asp.Result {
		bound := NewBound(0, asp.Result{Dist: 1e18})
		seed := Item{Space: geom.Rect{MinX: 0, MaxX: 1, MinY: 0, MaxY: 1}, LB: 0}
		Run(workers, batch, []Item{seed}, bound, func(w int, it Item, inc asp.Result, emit func(Item)) asp.Result {
			lo, hi := it.Space.MinX, it.Space.MaxX
			mid := (lo + hi) / 2
			cand := asp.Result{Dist: f(mid), Point: geom.Point{X: mid}}
			if Better(inc, cand) {
				cand = inc
			}
			if hi-lo > 1e-4 {
				// Children's LB: the quadratic term can't be smaller than 0
				// and the bumpy term is ≥ 0, so use a crude interval bound.
				emit(Item{Space: geom.Rect{MinX: lo, MaxX: mid, MinY: 0, MaxY: 1}, LB: it.LB})
				emit(Item{Space: geom.Rect{MinX: mid, MaxX: hi, MinY: 0, MaxY: 1}, LB: it.LB})
			}
			return cand
		}, nil)
		return bound.Best()
	}
	want := solve(1, 0)
	for _, w := range []int{2, 3, 8} {
		got := solve(w, 0)
		if got.Dist != want.Dist || got.Point != want.Point {
			t.Fatalf("workers=%d: %+v, want %+v", w, got, want)
		}
	}
	// The batch width is a throughput knob too: this workload's optimum
	// is unique, so every batch size must land on the same answer bits.
	for _, b := range []int{1, 4, DefaultBatchSize, 100} {
		got := solve(3, b)
		if got.Dist != want.Dist || got.Point != want.Point {
			t.Fatalf("batch=%d: %+v, want %+v", b, got, want)
		}
	}
}

func sin13(x float64) float64 {
	// Cheap deterministic bumpiness without importing math.
	v := x * 13
	v -= float64(int(v))
	return v
}

// TestRunTerminatesOnNaNThreshold: a NaN pruning threshold (e.g. from a
// NaN query target) fails both the break test and the pop test; the
// driver must still drain the heap instead of spinning forever.
func TestRunTerminatesOnNaNThreshold(t *testing.T) {
	nan := math.NaN()
	bound := NewBound(0, asp.Result{Dist: nan})
	processed := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		Run(1, 0, []Item{{LB: 0}, {LB: nan}}, bound,
			func(w int, it Item, inc asp.Result, emit func(Item)) asp.Result {
				processed++
				return inc
			}, nil)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not terminate with a NaN threshold")
	}
	if processed != 2 {
		t.Fatalf("processed = %d, want 2", processed)
	}
}

// TestRunReleasesDroppedItems: every emitted item the driver discards —
// children pruned at the merge barrier and heap leftovers at
// termination — must reach the release hook exactly once.
func TestRunReleasesDroppedItems(t *testing.T) {
	bound := NewBound(0, asp.Result{Dist: 1e18})
	released := 0
	processed := 0
	pushes, _, _ := Run(1, 0, []Item{{LB: 0}}, bound,
		func(w int, it Item, inc asp.Result, emit func(Item)) asp.Result {
			processed++
			// First item finds the optimum and emits children that the
			// merged bound immediately prunes.
			for i := 0; i < 4; i++ {
				emit(Item{LB: 5, Pooled: true})
			}
			return asp.Result{Dist: 1}
		},
		func(it Item) {
			if !it.Pooled {
				t.Error("released a non-pooled seed")
			}
			released++
		})
	if processed != 1 {
		t.Fatalf("processed = %d, want 1", processed)
	}
	if released != 4 {
		t.Fatalf("released = %d, want 4 (all pruned children)", released)
	}
	if pushes != 1 {
		t.Fatalf("pushes = %d, want 1 (seed only)", pushes)
	}
}

// TestRunWorkSteals drives one wide superstep with a pathologically
// skewed cost profile — the first items of the batch (worker 0's deque
// block) sleep while the rest are instant — and asserts (a) idle workers
// steal the straggler's remaining items, and (b) the answer stays
// bit-identical to the sequential run, steals and all.
func TestRunWorkSteals(t *testing.T) {
	const items = 12
	solve := func(workers int) (asp.Result, int) {
		bound := NewBound(0, asp.Result{Dist: 1e18})
		seeds := make([]Item, items)
		for i := range seeds {
			seeds[i] = Item{LB: 0, Space: geom.Rect{MinX: float64(i), MaxX: float64(i) + 1, MinY: 0, MaxY: 1}}
		}
		_, _, steals := Run(workers, items, seeds, bound,
			func(w int, it Item, inc asp.Result, emit func(Item)) asp.Result {
				if it.Space.MinX < float64(items)/2 {
					time.Sleep(10 * time.Millisecond) // worker 0's block is slow
				}
				cand := asp.Result{Dist: 100 - it.Space.MinX, Point: geom.Point{X: it.Space.MinX}}
				if Better(inc, cand) {
					cand = inc
				}
				return cand
			}, nil)
		return bound.Best(), steals
	}
	want, _ := solve(1)
	got, steals := solve(4)
	if got.Dist != want.Dist || got.Point != want.Point {
		t.Fatalf("workers=4: %+v, want %+v", got, want)
	}
	if steals == 0 {
		t.Fatal("expected idle workers to steal from the slow worker's deque")
	}
}

// TestRunCtxCancellation: a context cancelled mid-search must stop the
// loop at the next superstep boundary, release every unprocessed heap
// item exactly once, report ctx.Err(), and leave no worker goroutine
// behind (the -race run doubles as the leak/teardown check). The
// workload regrows the heap forever, so only cancellation terminates it.
func TestRunCtxCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		bound := NewBound(0, asp.Result{Dist: 1e18})
		var processed atomic.Int64
		var released atomic.Int64
		done := make(chan error, 1)
		go func() {
			_, _, _, err := RunCtx(ctx, workers, 4, []Item{{LB: 0, Pooled: true}}, bound,
				func(w int, it Item, inc asp.Result, emit func(Item)) asp.Result {
					if processed.Add(1) == 16 {
						cancel() // cancel from inside a round: the round must still complete
					}
					emit(Item{LB: 0, Pooled: true})
					emit(Item{LB: 0, Pooled: true})
					return inc
				},
				func(it Item) { released.Add(1) })
			done <- err
		}()
		var err error
		select {
		case err = <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("workers=%d: RunCtx did not stop after cancellation", workers)
		}
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// Conservation: every processed item emitted two children; all
		// items are either processed or released, minus the one seed.
		if p, r := processed.Load(), released.Load(); p+r != 2*p+1 {
			t.Fatalf("workers=%d: processed=%d released=%d — leftovers not drained exactly once", workers, p, r)
		}
		cancel()
	}
}

// TestRunCtxDeadline: an already expired deadline must return before
// processing anything.
func TestRunCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	bound := NewBound(0, asp.Result{Dist: 1e18})
	processed := 0
	released := 0
	_, _, _, err := RunCtx(ctx, 2, 0, []Item{{LB: 0}, {LB: 1}}, bound,
		func(w int, it Item, inc asp.Result, emit func(Item)) asp.Result {
			processed++
			return inc
		},
		func(it Item) { released++ })
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if processed != 0 || released != 2 {
		t.Fatalf("processed=%d released=%d, want 0 and 2", processed, released)
	}
}

// TestDequeTake exercises the packed-CAS deque directly: front pops and
// back steals must partition the range exactly once.
func TestDequeTake(t *testing.T) {
	var d deque
	d.set(3, 9)
	seen := map[int]bool{}
	for i := 0; i < 3; i++ {
		v, ok := d.take(true)
		if !ok {
			t.Fatal("front take failed")
		}
		seen[v] = true
	}
	for {
		v, ok := d.take(false)
		if !ok {
			break
		}
		if seen[v] {
			t.Fatalf("item %d claimed twice", v)
		}
		seen[v] = true
	}
	for i := 3; i < 9; i++ {
		if !seen[i] {
			t.Fatalf("item %d never claimed", i)
		}
	}
	if _, ok := d.take(true); ok {
		t.Fatal("take from empty deque succeeded")
	}
}

func TestWorkersResolution(t *testing.T) {
	if Workers(4) != 4 {
		t.Fatal("explicit worker count not honored")
	}
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Fatal("auto worker count must be at least 1")
	}
}

// TestRunOneItemAllocs pins what a run costs before it does anything: a
// GI-DS cell or a space swept at once is a run of one item, and a search
// makes hundreds of them. Batch and outcome slots are built as batches
// reach them, so a one-item run pays for one of each — not for the
// DefaultBatchSize of them it never uses (46 allocations that way).
func TestRunOneItemAllocs(t *testing.T) {
	seeds := []Item{{}}
	process := func(_ int, _ Item, incumbent asp.Result, _ func(Item)) asp.Result { return incumbent }
	allocs := testing.AllocsPerRun(20, func() {
		Run(1, 0, seeds, NewBound(0, asp.Result{Dist: math.Inf(1)}), process, nil)
	})
	if allocs > 16 {
		t.Fatalf("a one-seed one-item run allocates %v times, want at most 16", allocs)
	}
}
