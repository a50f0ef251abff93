package server

import (
	"context"
	"fmt"
	"log"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"asrs"
	"asrs/internal/faultinject"
)

// Coalescer dispatches each /v1/query on arrival: Submit starts the
// request's search on a goroutine of its own and the answer is delivered
// when that search ends — no window, no batch, nobody waits for a slower
// neighbour. What used to need a batch happens in the engine while the
// searches run (asrs.Engine.QueryCtx, DESIGN.md §7): a request
// byte-identical to one already in flight joins it, and searches beyond
// the engine's parallelism queue for a core in arrival order.
//
// What the type owns is the off-handler goroutine — engine work runs
// where recoverMiddleware cannot see it, so a panicking search is
// converted to one failed request here — the dispatch failpoints, the
// drain (Close waits for every dispatched search) and the service-time
// feed behind Retry-After.
type Coalescer struct {
	eng *asrs.Engine
	// base is the coalescer's lifetime context: searches run under it
	// (per-request deadlines ride QueryRequest.Ctx), so cancelling it
	// aborts all in-flight engine work at the next superstep boundary.
	base context.Context
	// onService, when set, observes each dispatch's service time, slot
	// and join waits included (the Retry-After EWMA feed). Set before
	// serving; not synchronized.
	onService func(time.Duration)

	mu     sync.Mutex // orders wg.Add against Close
	closed bool
	wg     sync.WaitGroup // in-flight dispatch goroutines

	// Counters (atomic; see Stats).
	nDispatched atomic.Int64 // searches started
	nRejected   atomic.Int64 // submits refused because the coalescer closed
	nDelivered  atomic.Int64 // responses handed to waiters
}

// checkDispatchFaults probes the dispatch failpoints: a slow dispatch
// stalls its request (deadline-pressure simulation), a panicking one
// exercises recoverDeliver's conversion to an error response.
func (c *Coalescer) checkDispatchFaults() {
	if f, ok := faultinject.Check("server.dispatch.slow"); ok && f.Action == faultinject.ActSleep {
		f.Sleep()
	}
	if f, ok := faultinject.Check("server.dispatch.panic"); ok && f.Action == faultinject.ActPanic {
		panic(f.PanicValue())
	}
}

// observeService feeds one dispatch's engine service time to the
// server's EWMA (nil-safe: benches build bare coalescers).
func (c *Coalescer) observeService(d time.Duration) {
	if c.onService != nil {
		c.onService(d)
	}
}

// NewCoalescer builds a coalescer over the engine. base bounds every
// search (typically the server's drain context).
func NewCoalescer(base context.Context, eng *asrs.Engine) *Coalescer {
	if base == nil {
		base = context.Background()
	}
	return &Coalescer{eng: eng, base: base}
}

// Submit starts the request's search and returns the channel its
// response will arrive on (buffered, so a delivery never blocks on a
// client that stopped listening; a response is always delivered unless
// the coalescer was already closed, in which case the channel is
// closed). The request's own Ctx bounds its search.
func (c *Coalescer) Submit(req asrs.QueryRequest) <-chan asrs.QueryResponse {
	done := make(chan asrs.QueryResponse, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.nRejected.Add(1)
		close(done)
		return done
	}
	c.wg.Add(1)
	c.mu.Unlock()
	c.nDispatched.Add(1)
	go func() {
		defer c.wg.Done()
		defer c.recoverDeliver(done)
		c.checkDispatchFaults()
		started := time.Now()
		resp := c.eng.QueryCtx(c.base, req)
		c.observeService(time.Since(started))
		// Counter before delivery: a stats reader triggered by the
		// response (the bench does exactly that) must see it counted.
		c.nDelivered.Add(1)
		done <- resp
	}()
	return done
}

// recoverDeliver converts a panic on a dispatch goroutine into an error
// response for its request. Engine work runs off the handler goroutines
// here, so recoverMiddleware cannot catch it — without this, one
// panicking query would kill the whole daemon instead of failing with a
// 500.
func (c *Coalescer) recoverDeliver(done chan<- asrs.QueryResponse) {
	v := recover()
	if v == nil {
		return
	}
	log.Printf("server: panic in coalescer dispatch: %v\n%s", v, debug.Stack())
	c.nDelivered.Add(1)
	done <- asrs.QueryResponse{Err: fmt.Errorf("%w: %v", errDispatchPanic, v)}
}

// Close drains the coalescer: new submits are refused and Close blocks
// until every dispatched search has delivered — the graceful half of
// shutdown. Cancelling the base context instead (or additionally, after
// a drain deadline) aborts in-flight searches at the next kernel
// superstep boundary.
func (c *Coalescer) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.wg.Wait()
}

// CoalescerStats is a point-in-time snapshot of the coalescer counters.
type CoalescerStats struct {
	// Batches counts dispatched searches and BatchedRequests delivered
	// requests — one request per dispatch, so their ratio is 1 once
	// traffic settles; what requests share is Engine.DedupHits. The names
	// are the ones the benchmark reads.
	Batches         int64 `json:"batches"`
	BatchedRequests int64 `json:"batched_requests"`
	// Rejected counts submits refused after Close.
	Rejected int64 `json:"rejected"`
	// Delivered counts responses handed to waiters.
	Delivered int64 `json:"delivered"`
}

// Stats snapshots the coalescer counters.
func (c *Coalescer) Stats() CoalescerStats {
	delivered := c.nDelivered.Load()
	return CoalescerStats{
		Batches:         c.nDispatched.Load(),
		BatchedRequests: delivered,
		Rejected:        c.nRejected.Load(),
		Delivered:       delivered,
	}
}
