package kernel

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
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

func TestBoundApproximateThreshold(t *testing.T) {
	b := NewBound(0.25, asp.Result{Dist: 10})
	if got, want := b.Threshold(), 10/1.25; got != want {
		t.Fatalf("threshold = %g, want %g", got, want)
	}
}

// TestRunPrunesAgainstFreshBound: the loop is the paper's serial one.
// The first item popped finds the optimum, and a sibling whose lower
// bound equals it is queued behind it: the sibling is pruned unprocessed,
// by the bound the first item just lowered. Every item runs on the
// goroutine that called Run, which starts none whatever workers it is
// passed, and the bound keeps its own copy of a result's representation.
func TestRunPrunesAgainstFreshBound(t *testing.T) {
	caller := goroutineID()
	before := runtime.NumGoroutine()
	scratch := []float64{1}
	var processed []float64
	bound := NewBound(0, asp.Result{Dist: math.Inf(1)})
	Run(4, 0, []Item{{LB: 0}, {LB: 1}}, bound,
		func(_ int, it Item, inc asp.Result, emit func(Item)) asp.Result {
			processed = append(processed, it.LB)
			if id := goroutineID(); id != caller {
				t.Errorf("item at LB %v processed on goroutine %s, Run called on %s", it.LB, id, caller)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("%d goroutines while processing, %d before Run", n, before)
			}
			if it.LB == 0 {
				return asp.Result{Dist: 1, Rep: scratch}
			}
			return inc
		}, nil)
	scratch[0] = 99
	if len(processed) != 1 {
		t.Fatalf("processed the items at LB %v, want only the first: the sibling at LB 1 = d_opt is bounded away", processed)
	}
	if best := bound.Best(); best.Dist != 1 || best.Rep[0] != 1 {
		t.Fatalf("bound best %+v, want distance 1 with its own copy of rep [1]", best)
	}
}

// goroutineID returns the calling goroutine's id from its stack header.
func goroutineID() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// TestRunTerminatesOnNaNThreshold: a NaN pruning threshold (e.g. from a
// NaN query target) fails every termination and pruning test; the loop
// must still drain the heap instead of spinning forever.
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

// TestRunReleasesDroppedItems: every emitted item the loop discards —
// children the item's own find bounds away and heap leftovers at
// termination — must reach the release hook exactly once.
func TestRunReleasesDroppedItems(t *testing.T) {
	bound := NewBound(0, asp.Result{Dist: 1e18})
	released := 0
	processed := 0
	pushes, _, _ := Run(1, 0, []Item{{LB: 0}}, bound,
		func(w int, it Item, inc asp.Result, emit func(Item)) asp.Result {
			processed++
			// The first item finds the optimum and emits children that the
			// bound it just lowered prunes.
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

// TestRunCtxCancellation: a context cancelled mid-search must stop the
// loop before the next item, release every unprocessed heap item exactly
// once and report ctx.Err(). The workload regrows the heap forever, so
// only cancellation terminates it.
func TestRunCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	bound := NewBound(0, asp.Result{Dist: 1e18})
	processed, released := 0, 0
	done := make(chan error, 1)
	go func() {
		_, _, err := RunCtx(ctx, []Item{{LB: 0, Pooled: true}}, bound,
			func(w int, it Item, inc asp.Result, emit func(Item)) asp.Result {
				if processed++; processed == 16 {
					cancel() // cancel from inside an item: the item still completes
				}
				emit(Item{LB: 0, Pooled: true})
				emit(Item{LB: 0, Pooled: true})
				return inc
			},
			func(it Item) { released++ })
		done <- err
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("RunCtx did not stop after cancellation")
	}
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Conservation: every processed item emitted two children; all items
	// are either processed or released, minus the one seed.
	if processed != 16 || processed+released != 2*processed+1 {
		t.Fatalf("processed=%d released=%d, want 16 processed and the leftovers drained exactly once", processed, released)
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
	_, _, err := RunCtx(ctx, []Item{{LB: 0}, {LB: 1}}, bound,
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

// TestRunOneItemAllocs pins what a run costs before it does anything: a
// GI-DS cell or a space swept at once is a run of one item, and a search
// makes hundreds of them. A run pays for its bound, its heap and the
// closure that collects children.
func TestRunOneItemAllocs(t *testing.T) {
	seeds := []Item{{}}
	process := func(_ int, _ Item, incumbent asp.Result, _ func(Item)) asp.Result { return incumbent }
	allocs := testing.AllocsPerRun(20, func() {
		Run(1, 0, seeds, NewBound(0, asp.Result{Dist: math.Inf(1)}), process, nil)
	})
	if allocs > 4 {
		t.Fatalf("a one-seed one-item run allocates %v times, want at most 4", allocs)
	}
}
