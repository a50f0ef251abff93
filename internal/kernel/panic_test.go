package kernel

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"asrs/internal/asp"
	"asrs/internal/faultinject"
	"asrs/internal/geom"
)

// panicWorkload drives RunCtx over a deep synthetic tree whose process
// func panics on the trigger-th processed item (-1 never panics).
// Returns the run error and the items actually processed.
func panicWorkload(t *testing.T, trigger int) (error, int) {
	t.Helper()
	bound := NewBound(0, asp.Result{Dist: 1e18})
	seed := Item{Space: geom.Rect{MinX: 0, MaxX: 1, MinY: 0, MaxY: 1}, LB: 0}
	processed := 0
	_, _, err := RunCtx(context.Background(), []Item{seed}, bound,
		func(w int, it Item, inc asp.Result, emit func(Item)) asp.Result {
			processed++
			if processed == trigger {
				panic("boom: poisoned query")
			}
			lo, hi := it.Space.MinX, it.Space.MaxX
			mid := (lo + hi) / 2
			if hi-lo > 1e-3 {
				emit(Item{Space: geom.Rect{MinX: lo, MaxX: mid, MinY: 0, MaxY: 1}, LB: it.LB})
				emit(Item{Space: geom.Rect{MinX: mid, MaxX: hi, MinY: 0, MaxY: 1}, LB: it.LB})
			}
			cand := asp.Result{Dist: (mid - 0.3) * (mid - 0.3), Point: geom.Point{X: mid}}
			if Better(inc, cand) {
				cand = inc
			}
			return cand
		}, nil)
	return err, processed
}

// settleGoroutines waits (bounded) for the goroutine count to drop back
// to at most base+slack; returns the last observed count.
func settleGoroutines(base, slack int) int {
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > base+slack && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// A processor panic must surface as a typed *PanicError — the process
// survives and no goroutine is left behind.
func TestPanicConvertsToTypedError(t *testing.T) {
	base := runtime.NumGoroutine()
	err, _ := panicWorkload(t, 5)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if v, ok := pe.Value.(string); !ok || !strings.Contains(v, "boom") {
		t.Fatalf("panic value %v lost", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("no stack captured")
	}
	if got := settleGoroutines(base, 2); got > base+2 {
		t.Fatalf("goroutines %d -> %d (leak)", base, got)
	}
}

// A panic in one item must not lose the incumbent offered by earlier
// ones: the bound still holds it, so a caller that wants a partial
// answer alongside the typed error has one.
func TestPanicKeepsMergedIncumbent(t *testing.T) {
	bound := NewBound(0, asp.Result{Dist: 1e18})
	processed := 0
	_, _, err := RunCtx(context.Background(), []Item{{LB: 0, Space: unitSpace()}}, bound,
		func(w int, it Item, inc asp.Result, emit func(Item)) asp.Result {
			processed++
			if processed == 1 {
				emit(Item{LB: 0.5, Space: unitSpace()})
				return asp.Result{Dist: 1, Point: geom.Point{X: 0.25}}
			}
			panic("the second item dies")
		}, nil)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if best := bound.Best(); best.Dist != 1 {
		t.Fatalf("merged incumbent lost: bound best = %+v", best)
	}
}

// Every pooled child the panicking item emitted before it died — and
// every heap leftover — must reach the release hook, so pooled id slices
// are not stranded mid-crash.
func TestPanicReleasesChildrenAndHeap(t *testing.T) {
	bound := NewBound(0, asp.Result{Dist: 1e18})
	released := 0
	processed := 0
	_, _, err := RunCtx(context.Background(), []Item{{LB: 0, Space: unitSpace()}}, bound,
		func(w int, it Item, inc asp.Result, emit func(Item)) asp.Result {
			processed++
			switch processed {
			case 1:
				// The seed emits four children at LB 0.1.
				for i := 0; i < 4; i++ {
					emit(Item{LB: 0.1, Pooled: true, Space: unitSpace()})
				}
			case 2:
				emit(Item{LB: 0.2, Pooled: true, Space: unitSpace()})
			case 3:
				emit(Item{LB: 0.3, Pooled: true, Space: unitSpace()})
				panic("die after emitting a child")
			}
			return inc
		}, func(it Item) { released++ })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	// Items 2 and 3 were two of the seed's children. Left: the seed's
	// other two children, item 2's child, and the child item 3 emitted
	// before it died.
	if released != 4 {
		t.Fatalf("released = %d, want 4 (3 heap leftovers + 1 orphaned child)", released)
	}
}

// The kernel.process.panic failpoint must inject through the same
// recovery path, yielding a typed error that names the injection.
func TestInjectedPanicFailpoint(t *testing.T) {
	defer faultinject.Deactivate()
	faultinject.Activate(faultinject.NewPlan(3,
		faultinject.Spec{Point: "kernel.process.panic", Action: faultinject.ActPanic, MaxEvery: 1}))
	err, processed := panicWorkload(t, -1)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if v, _ := pe.Value.(string); !strings.Contains(v, "faultinject") {
		t.Fatalf("panic value %q does not name the injection", v)
	}
	if processed != 0 {
		// MaxEvery=1 fires on the very first item; nothing was processed
		// to completion.
		t.Fatalf("processed = %d, want 0", processed)
	}
}

// The kernel.barrier.slow failpoint must not change answers — only stall
// the merges.
func TestSlowBarrierKeepsAnswer(t *testing.T) {
	run := func() asp.Result {
		bound := NewBound(0, asp.Result{Dist: 1e18})
		seed := Item{Space: geom.Rect{MinX: 0, MaxX: 1, MinY: 0, MaxY: 1}, LB: 0}
		Run(1, 0, []Item{seed}, bound, func(w int, it Item, inc asp.Result, emit func(Item)) asp.Result {
			lo, hi := it.Space.MinX, it.Space.MaxX
			mid := (lo + hi) / 2
			if hi-lo > 1e-2 {
				emit(Item{Space: geom.Rect{MinX: lo, MaxX: mid, MinY: 0, MaxY: 1}, LB: it.LB})
				emit(Item{Space: geom.Rect{MinX: mid, MaxX: hi, MinY: 0, MaxY: 1}, LB: it.LB})
			}
			cand := asp.Result{Dist: (mid - 0.7) * (mid - 0.7), Point: geom.Point{X: mid}}
			if Better(inc, cand) {
				cand = inc
			}
			return cand
		}, nil)
		return bound.Best()
	}
	want := run()
	faultinject.Activate(faultinject.NewPlan(5,
		faultinject.Spec{Point: "kernel.barrier.slow", Action: faultinject.ActSleep, MaxEvery: 2, Delay: time.Millisecond}))
	got := run()
	faultinject.Deactivate()
	if got.Dist != want.Dist || got.Point != want.Point {
		t.Fatalf("slow barrier changed the answer: %+v vs %+v", got, want)
	}
}

func unitSpace() geom.Rect { return geom.Rect{MinX: 0, MaxX: 1, MinY: 0, MaxY: 1} }

// Step makes a run's checks around one item: a cancelled context stops it
// before the item runs, a panic — its own or the kernel.process.panic
// failpoint's — comes back as a *PanicError, and an item that returns
// leaves no error.
func TestStepChecksLikeARun(t *testing.T) {
	ran := 0
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Step(ctx, func() { ran++ }); !errors.Is(err, context.Canceled) || ran != 0 {
		t.Fatalf("cancelled: err = %v after %d runs, want context.Canceled before any", err, ran)
	}
	if err := Step(context.Background(), func() { ran++ }); err != nil || ran != 1 {
		t.Fatalf("err = %v after %d runs, want nil after 1", err, ran)
	}
	var pe *PanicError
	if err := Step(context.Background(), func() { panic("boom") }); !errors.As(err, &pe) || pe.Value != "boom" {
		t.Fatalf("err = %v, want the item's *PanicError", err)
	}
	defer faultinject.Deactivate()
	faultinject.Activate(faultinject.NewPlan(3,
		faultinject.Spec{Point: "kernel.process.panic", Action: faultinject.ActPanic, MaxEvery: 1}))
	if err := Step(context.Background(), func() { ran++ }); !errors.As(err, &pe) || ran != 1 {
		t.Fatalf("armed failpoint: err = %v after %d runs, want a *PanicError before the item", err, ran)
	}
}
