// Package kernel is the best-first loop of the paper's Algorithm 1, run
// serially on the caller's goroutine by DS-Search, GI-DS and MaxRS.
// Nothing depends on a schedule, so answers are deterministic by
// construction; parallelism lives between searches.
package kernel

import (
	"context"
	"fmt"
	"runtime/debug"

	"asrs/internal/asp"
	"asrs/internal/faultinject"
	"asrs/internal/geom"
)

// Item is a space, its Equation 1 lower bound and the master ids of the
// rectangles meeting Clip, the space cut to its ancestors (child edges can
// overshoot by an ulp). Pooled marks id slices the processor recycles.
type Item struct {
	LB          float64
	Space, Clip geom.Rect
	Ids         []int32
	Pooled      bool
}

// ProcessFunc processes one space against incumbent, emitting children,
// and returns the best candidate found; worker is inert, always 0.
type ProcessFunc func(worker int, it Item, incumbent asp.Result, emit func(Item)) asp.Result

// PanicError is a processor panic, recovered to fail one search only.
type PanicError struct {
	Value any    // the recovered panic payload
	Stack []byte // the panicking goroutine's stack
}

func (e *PanicError) Error() string { return fmt.Sprintf("kernel: panic during search: %v", e.Value) }

// Run is RunCtx without cancellation; workers, batch and steals are inert.
func Run(workers, batch int, seeds []Item, bound *Bound, process ProcessFunc, release func(Item)) (pushes, maxHeap, steals int) {
	pushes, maxHeap, _ = RunCtx(context.Background(), seeds, bound, process, release)
	return pushes, maxHeap, 0
}

// RunCtx pops the space of least bound until it cannot beat the
// threshold, processes it against the bound's best, offers the result and
// pushes the children the new threshold spares, returning the pushes and
// the peak heap size. ctx is checked after the termination test, so a
// determined answer beats a late deadline. release gets dropped items.
func RunCtx(ctx context.Context, seeds []Item, bound *Bound, process ProcessFunc, release func(Item)) (pushes, maxHeap int, err error) {
	if release == nil {
		release = func(Item) {}
	}
	h := NewHeap(func(a, b Item) bool { return a.LB < b.LB })
	for _, s := range seeds {
		h.Push(s)
	}
	pushes, maxHeap = len(seeds), len(seeds)
	var children []Item
	emit := func(c Item) { children = append(children, c) }
	// A NaN threshold fails every test, so the whole heap is processed.
	for h.Len() > 0 && !(h.Peek().LB >= bound.Threshold()) {
		if err = ctx.Err(); err != nil {
			break
		}
		children = children[:0]
		var best asp.Result
		it := h.Pop()
		err = guard(func() { best = process(0, it, bound.Best(), emit) })
		stall()
		if err != nil {
			for _, c := range children {
				release(c)
			}
			break
		}
		bound.Offer(best)
		thresh := bound.Threshold()
		for _, c := range children {
			if c.LB >= thresh {
				release(c)
				continue
			}
			h.Push(c)
			pushes++
		}
		maxHeap = max(maxHeap, h.Len())
	}
	for h.Len() > 0 {
		release(h.Pop())
	}
	return pushes, maxHeap, err
}

// Step runs one space outside a run — one its caller solves at once and
// that needs no heap — under the checks a run makes around an item: the
// context first, then process behind the panic boundary and the run's
// failpoints. It returns the context's error or a *PanicError.
func Step(ctx context.Context, process func()) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	err := guard(process)
	stall()
	return err
}

// guard runs one item's processing behind the panic boundary.
func guard(process func()) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	if f, ok := faultinject.Check("kernel.process.panic"); ok && f.Action == faultinject.ActPanic {
		panic(f.PanicValue())
	}
	process()
	return nil
}

// stall is the stall between an item's processing and its merge: only
// latency may move.
func stall() {
	if f, ok := faultinject.Check("kernel.barrier.slow"); ok && f.Action == faultinject.ActSleep {
		f.Sleep()
	}
}
