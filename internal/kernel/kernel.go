// Package kernel is the concurrent best-first search core shared by
// DS-Search (internal/dssearch), GI-DS (internal/gridindex) and the MaxRS
// adaptation (internal/maxrs). It owns the space min-heap, the worker
// pool, and the shared pruning bound; the search packages supply a
// process function that discretizes, bounds and splits one space.
//
// # Execution model: deterministic supersteps
//
// The paper's best-first loop is embarrassingly parallel at the space
// level — each popped space is processed independently, coupled only
// through the global best-so-far bound. A fully asynchronous pool would
// exploit that, but its answers could depend on scheduling whenever
// several candidate points tie on distance (common with integer-count
// aggregators). Instead the kernel runs in supersteps:
//
//  1. Snapshot the shared bound; terminate if the cheapest space cannot
//     beat it.
//  2. Pop a fixed-size batch of spaces (batchSize, independent of the
//     worker count) that survive the snapshot threshold.
//  3. Process the batch's spaces concurrently under work stealing: the
//     batch is split into per-worker deques (contiguous index blocks);
//     each worker pops from the front of its own deque and, when it runs
//     dry, steals from the back of a victim's. Each space is a pure
//     function of (space, snapshot): workers start from the snapshot
//     incumbent, improve it locally with candidates found inside the
//     space, and collect child spaces. Workers never observe each other's
//     mid-round finds.
//  4. Barrier. Offer every space's local best to the shared bound (the
//     Better order is total, so the merged optimum is independent of
//     merge order), then push children onto the heap in batch order.
//
// Every structural decision therefore depends only on deterministic
// state, so the final answer — and every intermediate heap state — is
// bit-identical for any worker count and any goroutine schedule. Work
// stealing does not weaken this: each batch item's outcome is recorded
// in its own slot regardless of which worker processed it, processing is
// pure in (item, snapshot), and the merge at the barrier walks slots in
// batch order — so stealing only changes *which CPU* runs an item, never
// what the item computes or when its children enter the heap. The price
// of supersteps is bound freshness: a worker prunes against the optimum
// as of the round start rather than the freshest global value, wasting
// at most one batch of lookahead near convergence. The exactness
// theorems and the (1+δ) guarantee carry over unchanged: a space is only
// discarded when its lower bound reaches a threshold derived from some
// already-achieved answer distance, exactly as in the sequential
// pseudocode.
//
// Stealing exists because space costs are heavily skewed: one space near
// the optimum boundary can cost orders of magnitude more than its batch
// peers (deep refinement, large mini-sweeps). A fixed partition would
// idle every other worker behind the straggler for the rest of the
// round; with deques the idle workers drain the straggler's remaining
// items instead, which is exactly the skew that batched serving
// workloads expose.
package kernel

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync/atomic"

	"asrs/internal/asp"
	"asrs/internal/faultinject"
	"asrs/internal/geom"
)

// DefaultBatchSize is the number of spaces popped per superstep when
// the caller does not choose one. It is deliberately NOT derived from
// the worker count: the heap trajectory must be identical for every
// Workers setting or answers could differ between deployments. 32 keeps
// a wide machine busy while bounding the stale-bound lookahead.
const DefaultBatchSize = 32

// Item is one unit of best-first work: a candidate space, its Equation 1
// lower bound, and the ids (indices into the processor's master rectangle
// array) of the rectangle objects whose interiors intersect it. Ids are
// 4-byte indices rather than materialized rectangle copies so that the
// subsets flowing through the heap cost a tenth of the memory and recycle
// through the processor's per-worker arenas.
type Item struct {
	LB    float64
	Space geom.Rect
	// Clip is the running intersection of this item's space with every
	// ancestor space. Child spaces are cell MBRs whose float upper edges
	// can overshoot the parent by an ulp, so Ids — filtered down the
	// ancestor chain — is exactly the master set open-intersecting Clip,
	// not Space. Processors that consult query-global structures (the
	// dssearch SAT layer) clamp against Clip to stay consistent with the
	// chain-filtered subset. The kernel itself never reads it.
	Clip geom.Rect
	Ids  []int32
	// Pooled marks id slices owned by the search's arena (the processor
	// recycles them after use); seed items passed by callers keep their
	// slices.
	Pooled bool
}

// ProcessFunc handles one popped space. worker identifies the worker slot
// (0 ≤ worker < Workers) so the processor can use per-worker scratch;
// incumbent is the shared bound's snapshot at the start of the superstep;
// emit enqueues child spaces. The return value is the processor's local
// best — incumbent if nothing better was found inside the space.
//
// Processing must be a pure function of (item, incumbent) plus per-worker
// scratch whose contents never influence results; this is what makes the
// search schedule-independent.
type ProcessFunc func(worker int, it Item, incumbent asp.Result, emit func(Item)) asp.Result

// Workers resolves a worker-count option: values ≤ 0 select
// runtime.GOMAXPROCS(0).
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// outcome collects one item's deterministic processing result. emit is
// the slot's reusable child-collector closure, created when a batch first
// reaches the slot and kept for the rest of the Run — allocating it per
// processed item would dominate the steady-state allocation count.
type outcome struct {
	best     asp.Result
	children []Item
	emit     func(Item)
}

// deque is one worker's share of a superstep batch: a contiguous index
// range packed into a single atomic word (lo in the high half, hi
// exclusive in the low half). The owner pops from the front (lo++),
// thieves steal from the back (hi--); both sides race through CAS on
// the one word, so every item is claimed exactly once.
type deque struct {
	_ [56]byte // pad to a cache line so deques don't false-share
	b atomic.Uint64
}

func (d *deque) set(lo, hi int) { d.b.Store(uint64(lo)<<32 | uint64(hi)) }

// take claims one item: the front item when front is true (owner), the
// back item otherwise (thief). ok=false means the deque is empty.
func (d *deque) take(front bool) (int, bool) {
	for {
		b := d.b.Load()
		lo, hi := int(b>>32), int(b&0xffffffff)
		if lo >= hi {
			return 0, false
		}
		if front {
			if d.b.CompareAndSwap(b, uint64(lo+1)<<32|uint64(hi)) {
				return lo, true
			}
		} else {
			if d.b.CompareAndSwap(b, uint64(lo)<<32|uint64(hi-1)) {
				return hi - 1, true
			}
		}
	}
}

// Run drives the best-first loop to exhaustion and returns heap work
// counters (total pushes including seeds, the maximum heap size, and the
// number of within-superstep steals). batchSize is the superstep batch
// width (values <= 0 select DefaultBatchSize); like the worker count it
// is a throughput knob — answers are deterministic for any fixed batch
// size, and the search packages' determinism tests assert they do not
// depend on it either. bound carries the incumbent in and the final
// answer out. release, when non-nil, is called exactly once for every
// emitted item that Run drops without handing it to process (children
// pruned at the merge barrier, and heap leftovers when the bound
// terminates the loop), so processors that pool per-item resources can
// reclaim them; processed items are the processor's own responsibility.
func Run(workers, batchSize int, seeds []Item, bound *Bound, process ProcessFunc, release func(Item)) (pushes, maxHeap, steals int) {
	pushes, maxHeap, steals, _ = RunCtx(context.Background(), workers, batchSize, seeds, bound, process, release)
	return pushes, maxHeap, steals
}

// RunCtx is Run with cooperative cancellation: the context is checked
// once per superstep, at the round boundary where no worker is mid-item.
// On cancellation the loop stops before popping the next batch, every
// unprocessed heap item is handed to release, the persistent worker pool
// is torn down (no goroutine leaks), and err is ctx.Err()
// (context.Canceled or context.DeadlineExceeded). The bound still holds
// the best result found so far — callers decide whether a partial
// incumbent is useful. Because the check sits at the barrier, a round in
// flight always completes: cancellation never produces a torn superstep,
// so searches that are NOT cancelled retain the bit-identical-answers
// guarantee unchanged, and a cancelled search costs at most one batch of
// extra work after the deadline.
func RunCtx(ctx context.Context, workers, batchSize int, seeds []Item, bound *Bound, process ProcessFunc, release func(Item)) (pushes, maxHeap, steals int, err error) {
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	h := NewHeap[Item](func(a, b Item) bool { return a.LB < b.LB })
	for _, s := range seeds {
		h.Push(s)
	}
	pushes = len(seeds)
	workers = Workers(workers)

	// The batch and its outcome slots grow to the widest batch popped, not
	// to batchSize: most runs (a GI-DS cell, a space swept at once) pop
	// one to three items in all, and what a run allocates up front is then
	// most of what it costs. A slot's closure finds the slot by index,
	// since growing outs moves the slots.
	var batch []Item
	var outs []outcome

	// Persistent worker pool: goroutines are spawned once per Run (lazily,
	// at the first multi-item round) and parked between supersteps, so the
	// per-op allocation count does not grow with the worker count the way
	// per-round goroutine spawning would make it. Coordinator → worker
	// round state (batch, outs, deques, incumbent, n) is published before
	// the start-channel sends and read back after the done-channel
	// receives, so the channel operations order all access.
	var (
		n         int
		incumbent asp.Result
		deques    []deque
		stolen    atomic.Int64
		start     chan bool // one token per worker per round; false = quit
		done      chan struct{}
		spawned   int
		panicked  atomic.Pointer[PanicError]
	)
	// runItem processes one batch item behind the panic boundary: a
	// processor panic is recovered HERE, on whichever goroutine ran the
	// item, so the worker survives to finish its round, the barrier
	// sees every done signal (no deadlock), and the pool tears down
	// normally (no goroutine leak). The first panic is recorded and
	// becomes the run's typed error at the barrier; the slot's local
	// best falls back to the round's incumbent — a safe merge value —
	// and any children the item emitted before dying are discarded
	// below rather than searched, since the query is failing anyway.
	runItem := func(w, i int) {
		o := &outs[i]
		defer func() {
			if v := recover(); v != nil {
				panicked.CompareAndSwap(nil, &PanicError{Value: v, Stack: debug.Stack()})
				o.best = incumbent
			}
		}()
		if f, ok := faultinject.Check("kernel.process.panic"); ok && f.Action == faultinject.ActPanic {
			panic(f.PanicValue())
		}
		o.best = process(w, batch[i], incumbent, o.emit)
	}
	// runRound is the work-stealing loop of one worker: drain the front
	// of the worker's own deque, then steal single items from the back of
	// the other workers' deques until a full victim scan comes up empty.
	// Item i's outcome lands in outs[i] no matter who ran it, so the
	// merge below is oblivious to the schedule.
	runRound := func(w int) {
		for {
			i, ok := deques[w].take(true)
			if !ok {
				break
			}
			runItem(w, i)
		}
		for {
			hit := false
			for off := 1; off < workers; off++ {
				v := w + off
				if v >= workers {
					v -= workers
				}
				if i, ok := deques[v].take(false); ok {
					stolen.Add(1)
					runItem(w, i)
					hit = true
					break
				}
			}
			if !hit {
				return
			}
		}
	}
	defer func() {
		for i := 0; i < spawned; i++ {
			start <- false
		}
	}()

	stop := ctx.Done()
	for h.Len() > 0 {
		if h.Len() > maxHeap {
			maxHeap = h.Len()
		}
		incumbent = bound.Best()
		thresh := bound.Threshold()
		if h.Peek().LB >= thresh {
			break // every remaining space is bounded away from improving
		}
		// Cancellation is checked after the termination test on purpose:
		// a search whose answer is already fully determined must return
		// it, not discard it as DeadlineExceeded because the deadline
		// happened to fire a beat before the clean break above.
		select {
		case <-stop:
			err = ctx.Err()
		default:
		}
		if err != nil {
			break
		}
		batch = batch[:0]
		for h.Len() > 0 && len(batch) < batchSize && h.Peek().LB < thresh {
			batch = append(batch, h.Pop())
		}
		if len(batch) == 0 {
			// A NaN threshold or lower bound (e.g. a NaN query target)
			// fails both the break test above and the pop test, which
			// would spin this loop forever on a non-empty heap. Pop one
			// item unconditionally — the sequential loop's behavior — so
			// the search always drains and terminates.
			batch = append(batch, h.Pop())
		}
		n = len(batch)
		for i := len(outs); i < n; i++ {
			outs = append(outs, outcome{emit: func(c Item) { outs[i].children = append(outs[i].children, c) }})
		}
		for i := 0; i < n; i++ {
			outs[i].children = outs[i].children[:0]
		}

		if workers == 1 || n == 1 {
			// Inline fast path: no goroutines for sequential runs or
			// single-item rounds (results are identical either way).
			for i := 0; i < n; i++ {
				runItem(0, i)
			}
		} else {
			if spawned == 0 {
				start = make(chan bool)
				done = make(chan struct{})
				deques = make([]deque, workers)
				for w := 1; w < workers; w++ {
					go func(w int) {
						for <-start {
							runRound(w)
							done <- struct{}{}
						}
					}(w)
				}
				spawned = workers - 1
			}
			// Deal the batch into contiguous per-worker blocks. Workers
			// whose block is empty go straight to stealing.
			per, rem := n/workers, n%workers
			lo := 0
			for w := 0; w < workers; w++ {
				hi := lo + per
				if w < rem {
					hi++
				}
				deques[w].set(lo, hi)
				lo = hi
			}
			for i := 0; i < spawned; i++ {
				start <- true
			}
			runRound(0) // the coordinator doubles as worker 0
			for i := 0; i < spawned; i++ {
				<-done
			}
		}

		// Slow-barrier failpoint: stalls the coordinator between the join
		// and the merge, where a real straggler (page fault, scheduler
		// preemption) would sit. Answers must be unaffected — only
		// latency moves — which is exactly what the chaos suite asserts.
		if f, ok := faultinject.Check("kernel.barrier.slow"); ok && f.Action == faultinject.ActSleep {
			f.Sleep()
		}
		// A processor panic poisons the run: the query converts to a
		// typed per-query error instead of killing the process. This
		// round's outcomes are discarded — the local bests may reflect
		// partially processed items — and its children are released, so
		// the bound still holds the last fully merged incumbent.
		if pe := panicked.Load(); pe != nil {
			err = pe
			if release != nil {
				for i := 0; i < n; i++ {
					for _, c := range outs[i].children {
						release(c)
					}
				}
			}
			break
		}
		// Deterministic merge: candidates first (order-independent under
		// the total order), then children in batch order so the heap
		// trajectory is reproducible.
		for i := 0; i < n; i++ {
			bound.Offer(outs[i].best)
		}
		// Share this round's progress with any sibling searches attached
		// to the same external cap (cross-shard scatter–gather), then
		// fold their progress into this round's merged threshold.
		bound.PublishExternal()
		merged := bound.Threshold()
		for i := 0; i < n; i++ {
			for _, c := range outs[i].children {
				if c.LB >= merged {
					// Already bounded away by this round's finds.
					if release != nil {
						release(c)
					}
					continue
				}
				h.Push(c)
				pushes++
			}
		}
	}
	if release != nil {
		for h.Len() > 0 {
			release(h.Pop())
		}
	}
	return pushes, maxHeap, int(stolen.Load()), err
}
