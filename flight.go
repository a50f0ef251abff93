package asrs

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"time"
)

// flight is one search in progress that byte-identical requests on the
// same epoch view may join instead of searching themselves. The
// leader registers it before it queues for a slot, so a latecomer joins a
// search that has not started yet; it is removed from the view's table
// before done closes, so nothing outlives the search it describes.
type flight struct {
	done chan struct{}
	// joiners counts the requests waiting on done (guarded by Engine.mu
	// until the entry leaves the table; no one can join after that).
	joiners int
	// resp is the flight's private copy of a successful answer, written
	// before done closes and only when somebody joined: it is handed to
	// nobody, each joiner deep-copies it. ok stays false when the leader
	// failed — a context error, a typed failure, a panic — and the joiners
	// then search for themselves: nobody inherits someone else's deadline.
	resp QueryResponse
	ok   bool
}

// fly answers one request on the view its caller captured: join an
// identical search in flight, or lead one. Requests that pin Options
// (a δ-approximate answer must never be shared with an exact request)
// neither lead nor join.
func (e *Engine) fly(ctx context.Context, v *engineView, req QueryRequest) QueryResponse {
	if req.Options != nil || req.Query.F == nil {
		return e.search(ctx, v, req)
	}
	var kb strings.Builder
	dedupKey(&kb, &req)
	key := kb.String()
	for {
		e.mu.Lock()
		f := v.flights[key]
		if f == nil {
			f = &flight{done: make(chan struct{})}
			v.flights[key] = f
			e.mu.Unlock()
			return e.lead(ctx, v, req, key, f)
		}
		f.joiners++
		e.mu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			return QueryResponse{Err: ctx.Err()}
		}
		if f.ok {
			var resp QueryResponse
			copyResponse(&resp, &f.resp)
			e.nDedup.Add(1)
			return resp
		}
		// The leader failed; go round again (answer reports this request's
		// own context error if it has one by now).
	}
}

// lead runs the search of a registered flight and publishes its outcome.
// The clean-up is deferred so that a panicking search still leaves the
// table and wakes its joiners before the panic travels on.
func (e *Engine) lead(ctx context.Context, v *engineView, req QueryRequest, key string, f *flight) (resp QueryResponse) {
	searched := false
	defer func() {
		e.mu.Lock()
		delete(v.flights, key)
		joined := f.joiners > 0
		e.mu.Unlock()
		if joined && searched && resp.Err == nil {
			copyResponse(&f.resp, &resp)
			f.ok = true
		}
		close(f.done)
	}()
	resp = e.search(ctx, v, req)
	searched = true
	return resp
}

// search takes an execution slot, runs the request and gives the slot
// back. The latency histogram starts in answer, after the wait.
func (e *Engine) search(ctx context.Context, v *engineView, req QueryRequest) QueryResponse {
	return e.slotted(ctx, func() QueryResponse { return e.answer(ctx, v, req) })
}

// slotted runs a search in an execution slot: it queues for one under ctx
// and gives it back when run returns.
func (e *Engine) slotted(ctx context.Context, run func() QueryResponse) QueryResponse {
	start := time.Now()
	waited, err := e.slots.acquire(ctx)
	if waited {
		e.nSlotWaits.Add(1)
		e.slotWaitNanos.Add(int64(time.Since(start)))
	}
	if err != nil {
		return QueryResponse{Err: err}
	}
	defer e.slots.release()
	if waited {
		// The slot came straight from a search that just ended, and the
		// scheduler runs the goroutine it woke last — this one — first, on
		// the same time slice: back-to-back searches would keep a core from
		// everything queued behind that hand-over (the finished request's
		// response write, the requests arriving meanwhile) for up to 10 ms
		// at a time, and a request that cannot get scheduled registers too
		// late to be joined or to join. Let them run first.
		runtime.Gosched()
	}
	return run()
}

// slots admits at most a fixed number of holders at once; the rest wait
// in arrival order, each under its own context. Without it, many more
// CPU-bound searches than cores time-slice one another and a new request
// waits so long to be scheduled at all that it finds nothing to join.
type slots struct {
	mu    sync.Mutex
	free  int             // non-zero only while queue is empty
	queue []chan struct{} // waiters, oldest first; closing one grants it
}

// acquire takes a slot, reporting whether it had to queue for it. On a
// context error no slot is held.
func (s *slots) acquire(ctx context.Context) (waited bool, err error) {
	s.mu.Lock()
	if s.free > 0 {
		s.free--
		s.mu.Unlock()
		return false, nil
	}
	turn := make(chan struct{})
	s.queue = append(s.queue, turn)
	s.mu.Unlock()
	select {
	case <-turn:
		return true, nil
	case <-ctx.Done():
	}
	s.mu.Lock()
	for i, c := range s.queue {
		if c == turn {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			s.mu.Unlock()
			return true, ctx.Err()
		}
	}
	s.mu.Unlock()
	// Granted while giving up: the slot goes to the next in line.
	s.release()
	return true, ctx.Err()
}

// release hands the slot to the oldest waiter, or frees it.
func (s *slots) release() {
	s.mu.Lock()
	if len(s.queue) > 0 {
		close(s.queue[0])
		s.queue = s.queue[1:]
	} else {
		s.free++
	}
	s.mu.Unlock()
}
