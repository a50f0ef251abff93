package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"asrs"
	"asrs/internal/dssearch"
	"asrs/internal/faultinject"
	"asrs/internal/query"
	"asrs/internal/shard"
	"asrs/internal/wire"
)

// Defaults for Config zero values.
const (
	// DefaultWindow is inert: /v1/query is searched on arrival and there
	// is no coalescing window. The name remains because the benchmark
	// module compiles against it (ROADMAP, "signatures to release").
	DefaultWindow = 2 * time.Millisecond
	// DefaultMaxInFlight bounds admitted requests (queued for a core +
	// executing); beyond it the server sheds load with 429.
	DefaultMaxInFlight = 256
	// DefaultTimeout bounds queries that do not pick their own.
	DefaultTimeout = 10 * time.Second
	// DefaultMaxTimeout clamps client-chosen timeouts.
	DefaultMaxTimeout = 60 * time.Second
	// maxBodyBytes bounds request bodies (targets and exclusion lists
	// are small; 8 MiB is generous).
	maxBodyBytes = 8 << 20
)

// Config configures a Server.
type Config struct {
	// Engine serves the queries (single-engine mode; exactly one of
	// Engine and Router must be set).
	Engine *asrs.Engine
	// Router serves the queries from a shard catalog (multi-shard mode):
	// extent-routed scatter–gather with per-shard fault isolation.
	Router *shard.Router
	// StartUnready makes /readyz report 503 until SetReady(true) is
	// called — the boot sequence for daemons that open their listener
	// before warming shards. /healthz is liveness and stays 200.
	StartUnready bool
	// DefaultPartial is the partial-result policy for routed queries that
	// do not send their own ("strict" when empty). Router mode only.
	DefaultPartial string
	// Composites is the serving registry: wire `composite` names to the
	// long-lived singletons the engine's caches are keyed by (required,
	// at least one entry).
	Composites map[string]*asrs.Composite
	// Window is inert (see DefaultWindow): read by nothing, kept for the
	// benchmark module's struct literal.
	Window time.Duration
	// MaxInFlight bounds admitted requests before 429 load shedding
	// (0 selects DefaultMaxInFlight).
	MaxInFlight int
	// Timeout is the per-query deadline for requests that do not send
	// timeout_ms (0 selects DefaultTimeout).
	Timeout time.Duration
	// MaxTimeout clamps client-chosen timeouts (0 selects
	// DefaultMaxTimeout).
	MaxTimeout time.Duration
}

// Server is the HTTP serving layer: handlers, admission control and the
// drain lifecycle. Create with New, mount via Handler, stop with
// Shutdown.
type Server struct {
	cfg    Config
	eng    *asrs.Engine  // nil in router mode
	router *shard.Router // nil in engine mode
	schema *asrs.Schema  // the serving schema of either mode
	mux    *http.ServeMux
	ready  atomic.Bool

	// planner compiles /v1/search query text against the serving schema,
	// with the registered composites resolvable as @name references. Its
	// interner means textually identical expressions share one composite
	// singleton — and through it the engine's caches and searches in
	// flight.
	planner *query.Planner

	// sem is the admission semaphore: one token per admitted query,
	// covering its handler's whole life (slot wait + search + response).
	// Acquisition is non-blocking — a full queue sheds with 429 +
	// Retry-After rather than stacking latency.
	sem chan struct{}

	// base is the serving context: every search runs under it. cancel
	// fires at the end of Shutdown's grace period, aborting stragglers
	// at their next cancellation point.
	base     context.Context
	cancel   context.CancelFunc
	draining atomic.Bool
	// inflight counts the requests that came in through enter and have not
	// left, so Shutdown's drain waits for every one. drainMu orders
	// inflight.Add against the draining flip: enter registers under the
	// read lock, Shutdown flips under the write lock, so no Add can race
	// a Wait that already observed zero.
	drainMu  sync.RWMutex
	inflight sync.WaitGroup

	// ewma tracks request service time (the Retry-After feed); ladder is
	// the brownout state machine stepped by sustained shedding. See
	// degrade.go.
	ewma   serviceEWMA
	ladder *ladder

	nReceived atomic.Int64
	nShed     atomic.Int64
	nTimeouts atomic.Int64
	nBadReqs  atomic.Int64
	start     time.Time
}

// New validates the config and builds a ready-to-serve Server.
func New(cfg Config) (*Server, error) {
	if (cfg.Engine == nil) == (cfg.Router == nil) {
		return nil, fmt.Errorf("server: config requires exactly one of an engine or a shard router")
	}
	switch cfg.DefaultPartial {
	case "", string(shard.Strict), string(shard.BestEffort):
	default:
		return nil, fmt.Errorf("server: unknown default partial policy %q", cfg.DefaultPartial)
	}
	if cfg.DefaultPartial != "" && cfg.Router == nil {
		return nil, fmt.Errorf("server: default partial policy requires router mode")
	}
	if len(cfg.Composites) == 0 {
		return nil, fmt.Errorf("server: config requires at least one registered composite")
	}
	for name, f := range cfg.Composites {
		if f == nil {
			return nil, fmt.Errorf("server: composite %q is nil", name)
		}
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = DefaultMaxTimeout
	}
	base, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:    cfg,
		eng:    cfg.Engine,
		router: cfg.Router,
		sem:    make(chan struct{}, cfg.MaxInFlight),
		base:   base,
		cancel: cancel,
		start:  time.Now(),
	}
	s.ready.Store(!cfg.StartUnready)
	s.ladder = newLadder()
	b, _ := s.binding("") // the empty policy always binds
	s.schema = b.Dataset().Schema
	s.planner = query.NewPlanner(s.schema, cfg.Composites)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("POST /v1/search", s.handleSearch)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/insert", s.handleInsert)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /stats", s.handleStats)
	s.mux = mux
	return s, nil
}

// SetReady flips the /readyz gate. Daemons that open their listener
// before warming (shard mode) start with StartUnready and call
// SetReady(true) once eager shards are loaded and WAL recovery is done.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Handler returns the server's HTTP handler with the standard
// middleware (panic recovery) applied.
func (s *Server) Handler() http.Handler { return recoverMiddleware(s.mux) }

// Shutdown drains the server gracefully: readiness flips to 503 and new
// requests are refused immediately, and admitted ones (queued for a core,
// searching or writing their response) get until ctx's deadline to
// finish before the serving context is cancelled — which stops
// stragglers cooperatively at their next cancellation point. Always
// returns after in-flight work has stopped; the error reports whether
// the grace period expired first.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining.Store(true)
	s.drainMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = fmt.Errorf("server: drain grace period expired: %w", ctx.Err())
	}
	// Cancel the serving context either way: a no-op after a clean
	// drain, the cooperative abort for stragglers otherwise.
	s.cancel()
	<-done
	return err
}

// buildRequest compiles a wire query into an engine request and the
// binding that answers it. The returned cancel func releases the
// deadline timer and must be called once the response is delivered.
func (s *Server) buildRequest(wq wire.Query) (query.Binding, asrs.QueryRequest, context.CancelFunc, error) {
	backend, err := s.binding(wq.Partial)
	if err != nil {
		return nil, asrs.QueryRequest{}, nil, err
	}
	f, ok := s.cfg.Composites[wq.Composite]
	if !ok {
		return nil, asrs.QueryRequest{}, nil, fmt.Errorf("unknown composite %q", wq.Composite)
	}
	norm, err := wire.ParseNorm(wq.Norm)
	if err != nil {
		return nil, asrs.QueryRequest{}, nil, err
	}
	a, b := wq.A, wq.B
	var q asrs.Query
	exclude := make([]asrs.Rect, 0, len(wq.Exclude)+1)
	for _, r := range wq.Exclude {
		exclude = append(exclude, wire.RectLib(r))
	}
	switch {
	case wq.Region != nil && wq.Target != nil:
		return nil, asrs.QueryRequest{}, nil, fmt.Errorf("set either target or region, not both")
	case wq.Region != nil:
		rq := wire.RectLib(*wq.Region)
		if a == 0 {
			a = rq.Width()
		}
		if b == 0 {
			b = rq.Height()
		}
		// The current logical dataset (seed + ingested), so an example
		// region's representation includes objects inserted into it.
		q, err = asrs.QueryFromRegion(backend.Dataset(), f, wq.Weights, rq)
		if err != nil {
			return nil, asrs.QueryRequest{}, nil, err
		}
		if wq.ExcludeRegion {
			exclude = append(exclude, rq)
		}
	case wq.Target != nil:
		q, err = asrs.QueryFromTarget(f, wq.Target, wq.Weights)
		if err != nil {
			return nil, asrs.QueryRequest{}, nil, err
		}
	default:
		return nil, asrs.QueryRequest{}, nil, fmt.Errorf("query requires a target or an example region")
	}
	q.Norm = norm
	if err := dssearch.CheckExtent(a, b); err != nil {
		return nil, asrs.QueryRequest{}, nil, err
	}
	if wq.TopK < 0 || wq.TopK > asrs.MaxTopK {
		return nil, asrs.QueryRequest{}, nil, fmt.Errorf("top_k must be between 0 and %d, got %d", asrs.MaxTopK, wq.TopK)
	}
	if wq.Delta < 0 {
		return nil, asrs.QueryRequest{}, nil, fmt.Errorf("delta must be non-negative, got %g", wq.Delta)
	}
	req := asrs.QueryRequest{Query: q, A: a, B: b, TopK: wq.TopK, Exclude: exclude}
	if wq.Extent != nil {
		ext := wire.RectLib(*wq.Extent)
		if !ext.IsValid() {
			return nil, asrs.QueryRequest{}, nil, fmt.Errorf("invalid extent: min must not exceed max")
		}
		req.Within = &ext
	}
	if wq.Delta > 0 {
		// Pinning per-request options opts this query out of joining a
		// search in flight (a δ-approximate answer must never be shared
		// with an exact request); it still queues for a core. Start from
		// the engine's defaults so only δ changes — the operator's worker
		// bound and grid settings must survive the pin.
		opt := backend.SearchOptions()
		opt.Delta = wq.Delta
		req.Options = &opt
	}
	if wq.TimeoutMS < 0 {
		return nil, asrs.QueryRequest{}, nil, fmt.Errorf("timeout_ms must be non-negative, got %d", wq.TimeoutMS)
	}
	ctx, cancel := context.WithTimeout(s.base, s.timeoutFor(wq.TimeoutMS))
	req.Ctx = ctx
	return backend, req, cancel, nil
}

// timeoutFor is the deadline a request's timeout_ms asks for: the
// server's default for 0, else the value clamped to MaxTimeout. The
// clamp compares milliseconds before converting them: a timeout_ms of
// 2⁶³ ns or more would wrap to a negative duration, a deadline already
// past.
func (s *Server) timeoutFor(ms int64) time.Duration {
	if ms == 0 {
		return s.cfg.Timeout
	}
	if ms > s.cfg.MaxTimeout.Milliseconds() {
		return s.cfg.MaxTimeout
	}
	return time.Duration(ms) * time.Millisecond
}

// binding resolves a request's partial-result policy — its own (router
// mode only), else the server default, else strict — to the backend that
// answers it: every /v1/query, /v1/batch member and /v1/search round goes
// through the binding, which also names the live logical corpus and the
// serving default search options. It is the one place that knows which
// mode the server is in.
func (s *Server) binding(partial string) (query.Binding, error) {
	policy := shard.PartialPolicy(partial)
	switch policy {
	case "":
		policy = shard.PartialPolicy(s.cfg.DefaultPartial) // "" is strict
	case shard.Strict, shard.BestEffort:
		if s.router == nil {
			return nil, fmt.Errorf("partial is only valid on a sharded server")
		}
	default:
		return nil, fmt.Errorf("unknown partial policy %q (want strict or best_effort)", partial)
	}
	if s.router == nil {
		return query.EngineBinding{E: s.eng}, nil
	}
	return query.RouterBinding{R: s.router, Policy: policy}, nil
}

// reply renders one answer for the wire and returns its HTTP status.
// Coverage always rides along, failures included — partial best_effort
// answers are only trustworthy with their skip list.
func (s *Server) reply(resp asrs.QueryResponse, cov *wire.Coverage, start time.Time) (wire.Response, int) {
	out := wire.ResponseWire(resp, time.Since(start))
	out.Coverage = cov
	status, _, _ := s.classify(resp.Err)
	return out, status
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// writeError writes a failure response with its taxonomy code and
// retryable bit (see errors.go).
func writeError(w http.ResponseWriter, status int, code string, retryable bool, format string, args ...any) {
	writeJSON(w, status, wire.Response{Error: fmt.Sprintf(format, args...), Code: code, Retryable: retryable})
}

// writeDraining writes the draining 503. It carries the same jittered
// Retry-After as overload shedding: drain is equally transient (the
// replacement process or another replica comes up on the order of the
// service time), and the jitter keeps shed clients from returning in
// lockstep.
func (s *Server) writeDraining(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
	writeError(w, http.StatusServiceUnavailable, wire.CodeDraining, true, "server is draining")
}

// enter is every front door's admission, run once per request before
// its body is read — shedding must stay cheap under exactly the overload
// it exists to protect against — and before any failpoint or search: it
// registers the request with the drain and takes its first admission
// token. It returns the request's leave, which the handler calls with
// every token it holds once it has answered, on its panic path too; nil
// means the 503 (draining) or 429 has been written.
//
// A registered request holds a token and the drain, so nothing it waits
// on may outlast its bounds. The body read gets a deadline of
// Config.Timeout here (readBody clears it once the body is decoded), so
// clients that stall their bodies cannot hold every token; and when the
// serving context is cancelled the deadline moves to now, so a stalled
// body fails its decode instead of holding Shutdown.
func (s *Server) enter(w http.ResponseWriter) (leave func(tokens int)) {
	s.drainMu.RLock()
	draining := s.draining.Load()
	if !draining {
		s.inflight.Add(1)
	}
	s.drainMu.RUnlock()
	if draining {
		s.writeDraining(w)
		return nil
	}
	if !s.admit(w, 1) {
		s.inflight.Done()
		return nil
	}
	// A writer with no connection under it (a handler test's recorder)
	// has no deadline to set; the error says only that.
	rc := http.NewResponseController(w)
	_ = rc.SetReadDeadline(time.Now().Add(s.cfg.Timeout))
	stop := context.AfterFunc(s.base, func() { _ = rc.SetReadDeadline(time.Now()) })
	return func(tokens int) {
		stop()
		s.release(tokens)
		s.inflight.Done()
	}
}

// readBody decodes a request body into v under the read deadline enter
// set, and clears it once the body is decoded: past the decode the
// connection is read only by net/http's watch for a client going away,
// which a deadline expiring mid-search would report as exactly that — so
// a search or a stream stays bounded by its own deadline alone. A failed
// decode keeps the deadline, which also bounds net/http's read of
// whatever is left of the body before it answers.
func readBody(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		return err
	}
	_ = http.NewResponseController(w).SetReadDeadline(time.Time{}) // as in enter
	return nil
}

// admit acquires n admission tokens — one per query, so a client batch
// weighs what it costs and cannot sidestep MaxInFlight by bundling —
// or sheds. ok=false means the 429 has already been written. The caller
// has already counted the request in nReceived (at handler entry, so
// decode failures count too).
func (s *Server) admit(w http.ResponseWriter, n int) bool {
	for got := 0; got < n; got++ {
		select {
		case s.sem <- struct{}{}:
		default:
			s.release(got)
			s.nShed.Add(1)
			s.ladder.note(true)
			// Retry-After derives from the service-time EWMA with
			// client-spreading jitter (degrade.go): shed clients come
			// back roughly when the work they were shed behind clears,
			// and never in lockstep. Never zero.
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
			writeError(w, http.StatusTooManyRequests, wire.CodeOverloaded, true, "server at capacity (%d in flight)", s.cfg.MaxInFlight)
			return false
		}
	}
	s.ladder.note(false)
	return true
}

// retryAfter derives the Retry-After seconds for a shed response.
func (s *Server) retryAfter() int {
	return retryAfterSeconds(s.ewma.Value(), rand.Float64())
}

func (s *Server) release(n int) {
	for ; n > 0; n-- {
		<-s.sem
	}
}

// handleQuery serves POST /v1/query: admit, decode, compile, then search
// on this goroutine through the binding — the call every /v1/search round
// makes — and respond. A panic is the handler's own (recoverMiddleware
// answers it with 500 internal_panic; the deferred leave still runs). A
// deadline is honoured where the engine honours it — the slot queue, the
// join wait, the entry check before a search and each space the kernel
// pops — so a 504 is written at the search's next cancellation point.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.nReceived.Add(1)
	leave := s.enter(w)
	if leave == nil {
		return
	}
	defer leave(1)
	var wq wire.Query
	if err := readBody(w, r, &wq); err != nil {
		s.nBadReqs.Add(1)
		writeError(w, http.StatusBadRequest, wire.CodeBadRequest, false, "invalid request body: %v", err)
		return
	}
	backend, req, cancel, err := s.buildRequest(wq)
	if err != nil {
		s.nBadReqs.Add(1)
		writeError(w, http.StatusBadRequest, wire.CodeBadRequest, false, "%v", err)
		return
	}
	defer cancel()
	// A disconnected client cancels its search: the request context is
	// derived from the serving context (drain), but net/http signals the
	// client going away through r.Context() — propagate that into the
	// search so abandoned work frees its core and admission token
	// instead of running out its full deadline.
	stopWatch := context.AfterFunc(r.Context(), cancel)
	defer stopWatch()

	// Chaos hooks: a slow request (deadline pressure) and a panicking one.
	if f, ok := faultinject.Check("server.dispatch.slow"); ok && f.Action == faultinject.ActSleep {
		f.Sleep()
	}
	if f, ok := faultinject.Check("server.dispatch.panic"); ok && f.Action == faultinject.ActPanic {
		panic(f.PanicValue())
	}
	resp, cov := backend.Query(req.Ctx, req)
	out, status := s.reply(resp, cov, start)
	s.ewma.Observe(time.Since(start))
	writeJSON(w, status, out)
}

// handleBatch serves POST /v1/batch: an explicit client-built batch,
// answered through the binding's QueryBatch — in engine mode the members
// in flight together on one epoch view, each under its own per-query
// deadline; routed, one member at a time.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.nReceived.Add(1)
	// One token before the decode keeps overload-path shedding cheap;
	// the batch's true weight is acquired after its size is known.
	leave := s.enter(w)
	if leave == nil {
		return
	}
	took := 1
	defer func() { leave(took) }()
	var wb wire.Batch
	if err := readBody(w, r, &wb); err != nil {
		s.nBadReqs.Add(1)
		writeError(w, http.StatusBadRequest, wire.CodeBadRequest, false, "invalid request body: %v", err)
		return
	}
	if len(wb.Queries) == 0 {
		s.nBadReqs.Add(1)
		writeError(w, http.StatusBadRequest, wire.CodeBadRequest, false, "batch requires at least one query")
		return
	}
	if len(wb.Queries) > s.cfg.MaxInFlight {
		s.nBadReqs.Add(1)
		writeError(w, http.StatusBadRequest, wire.CodeBadRequest, false, "batch of %d exceeds the admission bound (%d)", len(wb.Queries), s.cfg.MaxInFlight)
		return
	}
	if extra := len(wb.Queries) - 1; extra > 0 {
		if !s.admit(w, extra) {
			return
		}
		took += extra
	}

	reqs := make([]asrs.QueryRequest, len(wb.Queries))
	resps := make([]wire.Response, len(wb.Queries))
	backends := make([]query.Binding, len(wb.Queries)) // nil: answered 400
	cancels := make([]context.CancelFunc, 0, len(wb.Queries))
	for i, wq := range wb.Queries {
		backend, req, cancel, err := s.buildRequest(wq)
		if err != nil {
			s.nBadReqs.Add(1)
			resps[i] = wire.Response{Error: err.Error(), Code: wire.CodeBadRequest, Status: http.StatusBadRequest}
			continue
		}
		defer cancel()
		cancels = append(cancels, cancel)
		reqs[i], backends[i] = req, backend
	}
	// Like handleQuery, a disconnected client cancels its queries —
	// each per-query context individually, since those take precedence
	// over the batch-level context inside the engine.
	stopWatch := context.AfterFunc(r.Context(), func() {
		for _, c := range cancels {
			c()
		}
	})
	defer stopWatch()
	// Members are answered in index order, one QueryBatch per run of them
	// on the same binding: the whole batch in engine mode, and a new run
	// at each change of partial policy on a sharded server.
	var run []int
	flush := func() {
		if len(run) == 0 {
			return
		}
		sub := make([]asrs.QueryRequest, len(run))
		for k, i := range run {
			sub[k] = reqs[i]
		}
		out, covs := backends[run[0]].QueryBatch(s.base, sub)
		for k, i := range run {
			resps[i], resps[i].Status = s.reply(out[k], covs[k], start)
		}
		run = nil
	}
	for i, backend := range backends {
		if backend == nil {
			continue
		}
		if len(run) > 0 && backend != backends[run[0]] {
			flush()
		}
		run = append(run, i)
	}
	flush()
	if len(cancels) > 0 { // a batch of 400s searched nothing
		s.ewma.Observe(time.Since(start))
	}
	writeJSON(w, http.StatusOK, wire.BatchResponse{
		Responses: resps,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1e3,
	})
}

// handleInsert serves POST /v1/insert: appends a batch of objects to
// the served corpus as one atomic, durable unit (one WAL record; the
// 200 means the batch is staged and — under the daemon's sync policy —
// on stable storage). Inserted objects are visible to queries issued
// after the response.
//
// Admission is brownout-aware and stricter than the query path: inserts
// are deferrable background work nobody is waiting on, so a server
// whose degradation ladder has stepped down AT ALL sheds them outright
// (429 + Retry-After) — the remaining capacity serves queries first.
// Healthy servers admit inserts through the same door as queries —
// which registers them with the drain before they touch the engine:
// Shutdown closes the engine's WAL after the drain, so an admitted insert
// lands (and acks) before that, or the closed engine refuses it — never
// concurrently with the close.
func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.nReceived.Add(1)
	if level := s.ladder.Level(); level > 0 {
		s.nShed.Add(1)
		s.ladder.note(true)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
		writeError(w, http.StatusTooManyRequests, wire.CodeOverloaded, true,
			"server degraded (brownout level %d); inserts are shed first", level)
		return
	}
	leave := s.enter(w)
	if leave == nil {
		return
	}
	defer leave(1)
	var wi wire.Insert
	if err := readBody(w, r, &wi); err != nil {
		s.nBadReqs.Add(1)
		writeError(w, http.StatusBadRequest, wire.CodeBadRequest, false, "invalid request body: %v", err)
		return
	}
	if len(wi.Objects) == 0 {
		s.nBadReqs.Add(1)
		writeError(w, http.StatusBadRequest, wire.CodeBadRequest, false, "insert requires at least one object")
		return
	}
	objs, err := s.decodeInsertObjects(wi.Objects)
	if err != nil {
		s.nBadReqs.Add(1)
		writeError(w, http.StatusBadRequest, wire.CodeBadRequest, false, "%v", err)
		return
	}
	insert := s.insertBatch
	if s.router != nil {
		insert = s.router.Insert
	}
	if err := insert(objs); err != nil {
		switch {
		case errors.Is(err, asrs.ErrEngineClosed):
			s.writeDraining(w)
			return
		case errors.Is(err, asrs.ErrInvalidObject):
			// Refused before anything was staged: the request's fault.
			s.nBadReqs.Add(1)
			writeError(w, http.StatusBadRequest, wire.CodeBadRequest, false, "%v", err)
			return
		}
		// The append did not acknowledge, so nothing was staged: the
		// client may retry (e.g. after a transient disk error) without
		// risking duplication on this server.
		writeError(w, http.StatusInternalServerError, wire.CodeInternal, false, "insert failed: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, wire.InsertResponse{
		Ingested:      len(objs),
		TotalIngested: s.totalIngested(),
		ElapsedMS:     float64(time.Since(start).Microseconds()) / 1e3,
	})
}

func (s *Server) insertBatch(objs []asrs.Object) error { return s.eng.InsertBatch(objs) }

// totalIngested counts every object ingested since the seed corpus —
// summed across shards in router mode.
func (s *Server) totalIngested() int64 {
	if s.router == nil {
		return s.eng.Stats().Ingested
	}
	var total int64
	for _, sh := range s.router.Catalog().Shards() {
		if eng := sh.Loaded(); eng != nil {
			total += eng.Stats().Ingested
		}
	}
	return total
}

// decodeInsertObjects converts wire objects to library objects against
// the serving schema: every attribute must be present, categorical
// values arrive as domain labels, numeric values as numbers.
func (s *Server) decodeInsertObjects(in []wire.InsertObject) ([]asrs.Object, error) {
	schema := s.schema
	n := schema.Len()
	out := make([]asrs.Object, len(in))
	for i, wo := range in {
		if len(wo.Values) != n {
			return nil, fmt.Errorf("object %d has %d values, schema has %d attributes", i, len(wo.Values), n)
		}
		vals := make([]asrs.Value, n)
		for j := 0; j < n; j++ {
			a := schema.At(j)
			raw, ok := wo.Values[a.Name]
			if !ok {
				return nil, fmt.Errorf("object %d is missing attribute %q", i, a.Name)
			}
			if a.Kind == asrs.Categorical {
				label, ok := raw.(string)
				if !ok {
					return nil, fmt.Errorf("object %d attribute %q wants a domain label string, got %T", i, a.Name, raw)
				}
				idx := schema.ValueIndex(a.Name, label)
				if idx < 0 {
					return nil, fmt.Errorf("object %d attribute %q: label %q is not in the domain", i, a.Name, label)
				}
				vals[j].Cat = idx
			} else {
				num, ok := raw.(float64)
				if !ok {
					return nil, fmt.Errorf("object %d attribute %q wants a number, got %T", i, a.Name, raw)
				}
				vals[j].Num = num
			}
		}
		out[i] = asrs.Object{Loc: asrs.Point{X: wo.X, Y: wo.Y}, Values: vals}
	}
	return out, nil
}

// handleHealthz serves GET /healthz: pure liveness. It answers 200 as
// long as the process serves HTTP — including while draining or warming
// — so orchestrators never kill a process that is merely finishing or
// starting work. The payload carries the advisory state ("ok",
// "degraded" with the brownout level, "draining"); routing decisions
// belong to /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusOK, map[string]any{"status": "draining"})
		return
	}
	if level := s.ladder.Level(); level > 0 {
		writeJSON(w, http.StatusOK, map[string]any{"status": "degraded", "degrade_level": level})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// handleReadyz serves GET /readyz: the routing signal. 503 while
// draining (load balancers stop sending work before the listener
// closes) and while warming (eagerly-loaded shards and WAL recovery
// haven't finished — see SetReady); 200 once the server should receive
// traffic. A sharded server turns ready even when a shard failed to load
// (its breaker isolates it and the next request retries), so the 200's
// payload names every shard that has no engine yet.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "warming"})
		return
	}
	payload := map[string]any{"status": "ready"}
	if s.router != nil {
		var unloaded []string
		for _, sh := range s.router.Catalog().Shards() {
			if sh.Loaded() == nil {
				unloaded = append(unloaded, sh.Name())
			}
		}
		if len(unloaded) > 0 {
			payload["unloaded_shards"] = unloaded
		}
	}
	writeJSON(w, http.StatusOK, payload)
}

// Stats is the GET /stats document: server-level serving counters plus
// the engine's own.
type Stats struct {
	// UptimeSeconds since the server was built.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Received counts HTTP calls seen (a /v1/batch call counts once
	// regardless of how many queries it carries — Engine.Queries counts
	// per query; including shed and malformed calls); Shed the 429s;
	// Timeouts the 504s; BadRequests the 400s.
	Received    int64 `json:"received"`
	Shed        int64 `json:"shed"`
	Timeouts    int64 `json:"timeouts"`
	BadRequests int64 `json:"bad_requests"`
	// InFlight is the number of currently admitted requests and
	// MaxInFlight the admission bound.
	InFlight    int  `json:"in_flight"`
	MaxInFlight int  `json:"max_in_flight"`
	Draining    bool `json:"draining"`
	// Degraded/DegradeLevel report the brownout ladder (degrade.go);
	// BrownoutEntries counts healthy→brownout transitions and
	// ServiceEWMAMS is the request service-time average behind
	// Retry-After.
	Degraded        bool    `json:"degraded"`
	DegradeLevel    int     `json:"degrade_level"`
	BrownoutEntries int64   `json:"brownout_entries"`
	ServiceEWMAMS   float64 `json:"service_ewma_ms"`
	// Composites lists the registered composite names.
	Composites []string `json:"composites"`
	// Coalescer is inert (every field always 0): there is no coalescer.
	// The benchmark module reads it (ROADMAP, "signatures to release").
	Coalescer CoalescerStats   `json:"coalescer"`
	Engine    asrs.EngineStats `json:"engine"`
	// Shards is the per-shard breakdown (slab bounds, load state,
	// breaker state, engine counters) on a sharded server; nil otherwise.
	Shards *shard.RouterStats `json:"shards,omitempty"`
}

// CoalescerStats is inert: both fields are always 0. What requests share
// is counted by Engine.DedupHits, and how many searches ran by
// Engine.LatencyCount.
type CoalescerStats struct {
	Batches         int64 `json:"batches"`
	BatchedRequests int64 `json:"batched_requests"`
}

// handleStats serves GET /stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	names := make([]string, 0, len(s.cfg.Composites))
	for name := range s.cfg.Composites {
		names = append(names, name)
	}
	sort.Strings(names)
	var estats asrs.EngineStats
	if s.eng != nil {
		estats = s.eng.Stats()
	}
	var rstats *shard.RouterStats
	if s.router != nil {
		rs := s.router.Stats()
		rstats = &rs
	}
	level := s.ladder.Level()
	writeJSON(w, http.StatusOK, Stats{
		UptimeSeconds:   time.Since(s.start).Seconds(),
		Received:        s.nReceived.Load(),
		Shed:            s.nShed.Load(),
		Timeouts:        s.nTimeouts.Load(),
		BadRequests:     s.nBadReqs.Load(),
		InFlight:        len(s.sem),
		MaxInFlight:     s.cfg.MaxInFlight,
		Draining:        s.draining.Load(),
		Degraded:        level > 0,
		DegradeLevel:    level,
		BrownoutEntries: s.ladder.Entries(),
		ServiceEWMAMS:   float64(s.ewma.Value().Microseconds()) / 1e3,
		Composites:      names,
		Engine:          estats,
		Shards:          rstats,
	})
}
