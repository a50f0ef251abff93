package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asrs"
	"asrs/internal/dataset"
	"asrs/internal/dssearch"
	"asrs/internal/faultinject"
	"asrs/internal/server"
	"asrs/internal/wire"
)

// newTestServer builds a server over the shared corpus with the given
// config overrides applied (Engine is filled in unless set, and the
// corpus's composite added as "poi"). Its clean-up drains the server and
// fails the test on a goroutine the server left behind.
func newTestServer(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server, *asrs.Engine) {
	t.Helper()
	before := runtime.NumGoroutine()
	ds, f, _ := corpus(t)
	if cfg.Engine == nil {
		eng, err := asrs.NewEngine(ds, asrs.EngineOptions{IndexGranularity: 32})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Engine = eng
	}
	if cfg.Composites == nil {
		cfg.Composites = map[string]*asrs.Composite{}
	}
	cfg.Composites["poi"] = f
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { closeAndCheckLeaks(t, s, ts, before) })
	return s, ts, cfg.Engine
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func getStats(t *testing.T, url string) server.Stats {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st server.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// wireFor converts an engine request from the shared corpus into its
// wire form (targets are already materialized there).
func wireFor(req asrs.QueryRequest) wire.Query {
	return wire.Query{
		Composite: "poi",
		A:         req.A,
		B:         req.B,
		Target:    append([]float64(nil), req.Query.Target...),
	}
}

// TestServerQueryEndToEnd: a wire query must come back 200 with the
// same answer bits the engine gives directly, and /healthz and /stats
// must reflect the traffic.
func TestServerQueryEndToEnd(t *testing.T) {
	_, ts, eng := newTestServer(t, server.Config{})
	_, _, reqs := corpus(t)

	want := eng.Query(reqs[0])
	if want.Err != nil {
		t.Fatal(want.Err)
	}

	resp, body := postJSON(t, ts.URL+"/v1/query", wireFor(reqs[0]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var wr wire.Response
	if err := json.Unmarshal(body, &wr); err != nil {
		t.Fatal(err)
	}
	if len(wr.Results) != 1 {
		t.Fatalf("results = %d, want 1", len(wr.Results))
	}
	if math.Float64bits(wr.Results[0].Dist) != math.Float64bits(want.Results[0].Dist) {
		t.Fatalf("served dist %v != engine dist %v", wr.Results[0].Dist, want.Results[0].Dist)
	}
	if got := wire.RectLib(wr.Results[0].Region); got != want.Regions[0] {
		t.Fatalf("served region %+v != engine region %+v", got, want.Regions[0])
	}

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", hz.StatusCode)
	}

	stats := getStats(t, ts.URL)
	if stats.Received != 1 || stats.Engine.Queries < 1 {
		t.Fatalf("stats did not count the query: %+v", stats)
	}
	if len(stats.Composites) != 1 || stats.Composites[0] != "poi" {
		t.Fatalf("composites = %v", stats.Composites)
	}
	// Every answer served was re-evaluated at its point and matched, and
	// /stats says so.
	raw, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Body.Close()
	var doc struct {
		Engine map[string]json.RawMessage `json:"engine"`
	}
	if err := json.NewDecoder(raw.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if got := string(doc.Engine["self_check_misses"]); got != "0" {
		t.Fatalf("stats engine.self_check_misses = %q, want 0", got)
	}
}

// TestServerConcurrentClientsBitIdentical: N concurrent HTTP clients
// must get the same answer bits as sequential engine queries.
func TestServerConcurrentClientsBitIdentical(t *testing.T) {
	_, ts, eng := newTestServer(t, server.Config{})
	_, _, reqs := corpus(t)

	want := make([]float64, len(reqs))
	for i, req := range reqs {
		resp := eng.Query(req)
		if resp.Err != nil {
			t.Fatal(resp.Err)
		}
		want[i] = resp.Results[0].Dist
	}

	var wg sync.WaitGroup
	errs := make([]error, len(reqs))
	got := make([]float64, len(reqs))
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			raw, _ := json.Marshal(wireFor(reqs[i]))
			resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(raw))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			var wr wire.Response
			if err := json.NewDecoder(resp.Body).Decode(&wr); err != nil {
				errs[i] = err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, wr.Error)
				return
			}
			got[i] = wr.Results[0].Dist
		}(i)
	}
	wg.Wait()
	for i := range reqs {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("client %d: served %v != engine %v", i, got[i], want[i])
		}
	}
}

// TestCoalescerBitIdentical is the coalescing property test, named for
// the Coalescer it first held; identical requests now coalesce by joining
// a search already in flight behind /v1/query. Concurrent HTTP clients
// must get distances bit-identical to sequential Engine.Query calls — for
// any number of clients (and any value of the inert Workers option), and
// when a client fires a burst of identical requests at once (which join
// one search in the engine). Every request either searches or joins one.
func TestCoalescerBitIdentical(t *testing.T) {
	ds, _, reqs := corpus(t)

	// Sequential reference on a pristine engine.
	refEng, err := asrs.NewEngine(ds, asrs.EngineOptions{IndexGranularity: 32})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(reqs))
	for i, req := range reqs {
		resp := refEng.Query(req)
		if resp.Err != nil {
			t.Fatal(resp.Err)
		}
		want[i] = resp.Results[0].Dist
	}

	const burst = 4 // every sixth request is sent this many times at once
	for _, tc := range []struct{ clients, workers int }{{4, 1}, {4, 2}, {24, 1}, {24, 2}} {
		t.Run(fmt.Sprintf("clients=%d/workers=%d", tc.clients, tc.workers), func(t *testing.T) {
			eng, err := asrs.NewEngine(ds, asrs.EngineOptions{
				IndexGranularity: 32,
				Search:           asrs.Options{Workers: tc.workers},
			})
			if err != nil {
				t.Fatal(err)
			}
			_, ts, _ := newTestServer(t, server.Config{Engine: eng})

			post := func(i int) {
				raw, _ := json.Marshal(wireFor(reqs[i]))
				resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(raw))
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				var wr wire.Response
				if err := json.NewDecoder(resp.Body).Decode(&wr); err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("request %d: status %d, %v %s", i, resp.StatusCode, err, wr.Error)
					return
				}
				if got := wr.Results[0].Dist; math.Float64bits(got) != math.Float64bits(want[i]) {
					t.Errorf("request %d: served %v != sequential %v", i, got, want[i])
				}
			}
			var sent atomic.Int64
			var wg sync.WaitGroup
			for c := 0; c < tc.clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := c; i < len(reqs); i += tc.clients {
						n := 1
						if i%6 == 0 {
							n = burst
						}
						sent.Add(int64(n))
						var bw sync.WaitGroup
						for k := 0; k < n; k++ {
							bw.Add(1)
							go func() {
								defer bw.Done()
								post(i)
							}()
						}
						bw.Wait()
					}
				}()
			}
			wg.Wait()
			n := sent.Load()
			if es := eng.Stats(); es.LatencyCount+es.DedupHits != n {
				t.Fatalf("%d searches + %d joined != %d requests", es.LatencyCount, es.DedupHits, n)
			}
		})
	}
}

// TestServerBatchEndpoint: an explicit client batch must answer every
// query, with per-query failures isolated in their slot and classed by
// the per-response Status field — a malformed member is its own 400, and
// a member whose search panics outside the kernel's item boundary (here
// in a composite's selection function) its own 500 internal_panic, not a
// dead daemon.
func TestServerBatchEndpoint(t *testing.T) {
	ds, _, reqs := corpus(t)
	var armed atomic.Bool
	boom, err := asrs.NewComposite(ds.Schema, asrs.AggSpec{Kind: asrs.Count, Select: func(*asrs.Object) bool {
		if armed.Load() {
			panic("selector panicked")
		}
		return true
	}})
	if err != nil {
		t.Fatal(err)
	}
	_, ts, eng := newTestServer(t, server.Config{Composites: map[string]*asrs.Composite{"boom": boom}})

	batch := wire.Batch{Queries: []wire.Query{
		wireFor(reqs[0]),
		{Composite: "nope", A: 1, B: 1, Target: []float64{1}},
		wireFor(reqs[1]),
		{Composite: "boom", A: reqs[0].A, B: reqs[0].B, Target: []float64{3}},
	}}
	armed.Store(true)
	resp, body := postJSON(t, ts.URL+"/v1/batch", batch)
	armed.Store(false)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var br wire.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Responses) != 4 {
		t.Fatalf("responses = %d, want 4", len(br.Responses))
	}
	if br.Responses[1].Error == "" || br.Responses[1].Status != http.StatusBadRequest {
		t.Fatalf("unknown composite in slot 1: error %q status %d, want 400", br.Responses[1].Error, br.Responses[1].Status)
	}
	if m := br.Responses[3]; m.Code != wire.CodeInternalPanic || m.Status != http.StatusInternalServerError {
		t.Fatalf("panicking member in slot 3: code %q status %d, want internal_panic/500", m.Code, m.Status)
	}
	for slot, reqIdx := range map[int]int{0: 0, 2: 1} {
		if br.Responses[slot].Error != "" {
			t.Fatalf("slot %d failed: %s", slot, br.Responses[slot].Error)
		}
		if br.Responses[slot].Status != http.StatusOK {
			t.Fatalf("slot %d status = %d, want 200", slot, br.Responses[slot].Status)
		}
		want := eng.Query(reqs[reqIdx])
		if math.Float64bits(br.Responses[slot].Results[0].Dist) != math.Float64bits(want.Results[0].Dist) {
			t.Fatalf("slot %d: %v != %v", slot, br.Responses[slot].Results[0].Dist, want.Results[0].Dist)
		}
	}
	if resp, body := postJSON(t, ts.URL+"/v1/query", wireFor(reqs[0])); resp.StatusCode != http.StatusOK {
		t.Fatalf("request after the panicking batch: status = %d, body %s", resp.StatusCode, body)
	}
}

// TestServerQueryByExample: a region-based query with exclude_region
// must answer with a region that is not the example itself.
func TestServerQueryByExample(t *testing.T) {
	_, ts, _ := newTestServer(t, server.Config{})
	ds, _, _ := corpus(t)
	bounds := ds.Bounds()
	a, b := bounds.Width()/16, bounds.Height()/16
	ex := wire.Rect{
		MinX: bounds.MinX + bounds.Width()*0.4,
		MinY: bounds.MinY + bounds.Height()*0.4,
	}
	ex.MaxX, ex.MaxY = ex.MinX+a, ex.MinY+b

	resp, body := postJSON(t, ts.URL+"/v1/query", wire.Query{
		Composite:     "poi",
		Region:        &ex,
		ExcludeRegion: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var wr wire.Response
	if err := json.Unmarshal(body, &wr); err != nil {
		t.Fatal(err)
	}
	got := wire.RectLib(wr.Results[0].Region)
	if got.IntersectsOpen(wire.RectLib(ex)) {
		t.Fatalf("answer %+v overlaps the excluded example %+v", got, ex)
	}
	if math.Abs(got.Width()-a) > 1e-9 || math.Abs(got.Height()-b) > 1e-9 {
		t.Fatalf("answer extent %gx%g, want %gx%g", got.Width(), got.Height(), a, b)
	}
}

// TestServerDeadline504: a 1ms deadline on a real search must come back
// 504, and a concurrent normal query must still answer with the exact
// bits — a timed-out request never perturbs its peers. Every handler is
// stalled at the failpoint before its search, well past that deadline:
// a search starts the moment its request is compiled, and this one can
// finish inside a millisecond. The 504 is written when the search meets
// the dead context at its first cancellation point.
func TestServerDeadline504(t *testing.T) {
	_, ts, eng := newTestServer(t, server.Config{})
	ds, f, reqs := corpus(t)

	want := eng.Query(reqs[0])
	if want.Err != nil {
		t.Fatal(want.Err)
	}
	faultinject.Activate(faultinject.NewPlan(2,
		faultinject.Spec{Point: "server.dispatch.slow", Action: faultinject.ActSleep, MaxEvery: 1, Delay: 50 * time.Millisecond}))
	defer faultinject.Deactivate()

	// The doomed query covers a quarter of the city: plenty of
	// spaces for the deadline to land inside.
	tgt := make([]float64, f.Dims())
	for i := range tgt {
		tgt[i] = 1e6
	}
	bounds := ds.Bounds()
	doomed := wire.Query{
		Composite: "poi",
		A:         bounds.Width() / 4,
		B:         bounds.Height() / 4,
		Target:    tgt,
		TimeoutMS: 1,
	}
	var wg sync.WaitGroup
	wg.Add(2)
	var doomedStatus, peerStatus int
	var peer wire.Response
	go func() {
		defer wg.Done()
		resp, _ := postJSON(t, ts.URL+"/v1/query", doomed)
		doomedStatus = resp.StatusCode
	}()
	go func() {
		defer wg.Done()
		resp, body := postJSON(t, ts.URL+"/v1/query", wireFor(reqs[0]))
		peerStatus = resp.StatusCode
		_ = json.Unmarshal(body, &peer)
	}()
	wg.Wait()
	if doomedStatus != http.StatusGatewayTimeout {
		t.Fatalf("doomed query status = %d, want 504", doomedStatus)
	}
	if peerStatus != http.StatusOK {
		t.Fatalf("peer status = %d", peerStatus)
	}
	if math.Float64bits(peer.Results[0].Dist) != math.Float64bits(want.Results[0].Dist) {
		t.Fatalf("peer answer perturbed: %v != %v", peer.Results[0].Dist, want.Results[0].Dist)
	}
}

// TestServerBadRequests: malformed queries must 400 with a message and
// never reach the engine.
func TestServerBadRequests(t *testing.T) {
	_, ts, eng := newTestServer(t, server.Config{})
	_, f, _ := corpus(t)
	tgt := make([]float64, f.Dims())
	cases := []struct {
		name string
		q    wire.Query
	}{
		{"unknown composite", wire.Query{Composite: "nope", A: 1, B: 1, Target: tgt}},
		{"no target or region", wire.Query{Composite: "poi", A: 1, B: 1}},
		{"both target and region", wire.Query{Composite: "poi", A: 1, B: 1, Target: tgt, Region: &wire.Rect{MaxX: 1, MaxY: 1}}},
		{"bad norm", wire.Query{Composite: "poi", A: 1, B: 1, Target: tgt, Norm: "l3"}},
		{"wrong target dims", wire.Query{Composite: "poi", A: 1, B: 1, Target: []float64{1}}},
		{"zero extent", wire.Query{Composite: "poi", Target: tgt}},
		{"negative delta", wire.Query{Composite: "poi", A: 1, B: 1, Target: tgt, Delta: -1}},
		{"negative timeout", wire.Query{Composite: "poi", A: 1, B: 1, Target: tgt, TimeoutMS: -5}},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/query", tc.q)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, body %s", tc.name, resp.StatusCode, body)
		}
	}
	if st := eng.Stats(); st.Queries != 0 {
		t.Fatalf("bad requests reached the engine: %+v", st)
	}
}

// TestBatchFeedsServiceEWMA: an answered /v1/batch observes its service
// time like every front door, so a server taking only batches derives
// Retry-After from that instead of sitting at the 1 s floor. A batch
// whose every member is a 400 searched nothing and observes nothing.
func TestBatchFeedsServiceEWMA(t *testing.T) {
	_, ts, _ := newTestServer(t, server.Config{})
	_, _, reqs := corpus(t)
	bad := wire.Query{Composite: "nope", A: 1, B: 1, Target: []float64{1}}
	resp, body := postJSON(t, ts.URL+"/v1/batch", wire.Batch{Queries: []wire.Query{bad, bad}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("all-400 batch: status = %d, body %s", resp.StatusCode, body)
	}
	if st := getStats(t, ts.URL); st.ServiceEWMAMS != 0 {
		t.Fatalf("service_ewma_ms = %v after a batch that searched nothing, want 0", st.ServiceEWMAMS)
	}
	resp, body = postJSON(t, ts.URL+"/v1/batch", wire.Batch{Queries: []wire.Query{wireFor(reqs[0]), wireFor(reqs[1])}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if st := getStats(t, ts.URL); st.ServiceEWMAMS <= 0 {
		t.Fatalf("service_ewma_ms = %v after a batch, want > 0", st.ServiceEWMAMS)
	}
}

// TestServerSheds429: with a single admission slot held by a slow
// query, the next request must shed with 429 and a Retry-After header.
func TestServerSheds429(t *testing.T) {
	s, ts, _ := newTestServer(t, server.Config{MaxInFlight: 1})
	_, _, reqs := corpus(t)

	// Hold one request at its dispatch to occupy the only slot; its
	// response arrives once the stall ends, which Shutdown waits for.
	faultinject.Activate(faultinject.NewPlan(1,
		faultinject.Spec{Point: "server.dispatch.slow", Action: faultinject.ActSleep, MaxEvery: 1, Delay: time.Second}))
	defer faultinject.Deactivate()
	slowDone := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.URL+"/v1/query", wireFor(reqs[0]))
		slowDone <- resp.StatusCode
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := getStats(t, ts.URL)
		if st.InFlight >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first request never occupied the admission slot")
		}
		time.Sleep(time.Millisecond)
	}

	resp, body := postJSON(t, ts.URL+"/v1/query", wireFor(reqs[1]))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, body %s — want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// Drain: the parked request must still be answered (graceful), not
	// dropped.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if status := <-slowDone; status != http.StatusOK {
		t.Fatalf("parked request finished %d, want 200", status)
	}
}

// TestServerDrain: after Shutdown, /readyz reports 503 (the routing
// signal), /healthz stays 200 (pure liveness — the process still serves
// HTTP), and new queries are refused with a 503 that carries a jittered
// Retry-After.
func TestServerDrain(t *testing.T) {
	s, ts, _ := newTestServer(t, server.Config{})
	_, _, reqs := corpus(t)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	rz, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rz.Body.Close()
	if rz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain = %d, want 503", rz.StatusCode)
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var live map[string]any
	if err := json.NewDecoder(hz.Body).Decode(&live); err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK || live["status"] != "draining" {
		t.Fatalf("healthz after drain = %d %v, want 200 draining (liveness)", hz.StatusCode, live)
	}
	resp, body := postJSON(t, ts.URL+"/v1/query", wireFor(reqs[0]))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query after drain = %d, want 503", resp.StatusCode)
	}
	var wr wire.Response
	if err := json.Unmarshal(body, &wr); err != nil {
		t.Fatal(err)
	}
	if wr.Code != "draining" || !wr.Retryable {
		t.Fatalf("drain refusal code %q retryable %v, want draining/true", wr.Code, wr.Retryable)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("draining 503 Retry-After = %q, want >= 1", ra)
	}
}

// TestServerDrainStalledBody: a request registers with the drain before
// its body is read, so a client that sends headers and then stalls its
// body must not hold Shutdown past the grace period — once the serving
// context is cancelled the read fails and the request leaves.
func TestServerDrainStalledBody(t *testing.T) {
	s, ts, _ := newTestServer(t, server.Config{})
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprint(conn, "POST /v1/query HTTP/1.1\r\nHost: test\r\n"+
		"Content-Type: application/json\r\nContent-Length: 1000\r\n\r\n{"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for getStats(t, ts.URL).InFlight < 1 {
		if time.Now().After(deadline) {
			t.Fatal("the stalled request never entered")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	done := make(chan error, 1)
	go func() { done <- s.Shutdown(ctx) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Shutdown reported a clean drain with a stalled body in flight")
		}
		if el := time.Since(start); el > 5*time.Second {
			t.Fatalf("Shutdown returned after %v, want shortly after its 200ms grace period", el)
		}
	case <-time.After(10 * time.Second):
		conn.Close() // unblock the read so the clean-up can finish
		<-done
		t.Fatal("Shutdown blocked on a stalled request body past its grace period")
	}
	if st := getStats(t, ts.URL); st.InFlight != 0 {
		t.Fatalf("in_flight = %d after the drain, want 0", st.InFlight)
	}
}

// TestServerStalledBodiesReleaseAdmission: a request takes its admission
// token before its body is read, so clients that send headers and then
// stall their bodies could hold every token and shed everyone else with
// 429. The body read is bounded by the per-query timeout: the stalled
// requests fail their decode with 400 and give their tokens back.
func TestServerStalledBodiesReleaseAdmission(t *testing.T) {
	const timeout = 500 * time.Millisecond
	_, ts, _ := newTestServer(t, server.Config{MaxInFlight: 2, Timeout: timeout})
	_, _, reqs := corpus(t)
	sent := time.Now()
	conns := make([]net.Conn, 2)
	for i := range conns {
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := fmt.Fprint(conn, "POST /v1/query HTTP/1.1\r\nHost: test\r\n"+
			"Content-Type: application/json\r\nContent-Length: 1000\r\n\r\n{"); err != nil {
			t.Fatal(err)
		}
		conns[i] = conn
	}
	deadline := time.Now().Add(30 * time.Second)
	for getStats(t, ts.URL).InFlight < 2 {
		if time.Now().After(deadline) {
			t.Fatal("the stalled requests never entered")
		}
		time.Sleep(time.Millisecond)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/query", wireFor(reqs[0])); time.Since(sent) < timeout/2 &&
		resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("with every token held by a stalled body: status %d, body %s — want 429", resp.StatusCode, body)
	}

	for i, conn := range conns {
		_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatalf("stalled request %d: no response after %v: %v", i, time.Since(sent), err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("stalled request %d: status %d, want 400", i, resp.StatusCode)
		}
	}
	if resp, body := postJSON(t, ts.URL+"/v1/query", wireFor(reqs[0])); resp.StatusCode != http.StatusOK {
		t.Fatalf("after the stalled bodies timed out: status %d, body %s — want 200", resp.StatusCode, body)
	}
}

// TestServerTopKBound: top_k and the answer size arrive from outside the
// program, so both struct front doors refuse more than asrs.MaxTopK — the
// bound the query language applies to `top k` — and a size at or beyond
// dssearch.MaxExtent with 400 bad_request before any search is started
// (a size of 1.5e308 used to be searched into a region with infinite
// corners), and at the top_k bound a 50-object corpus answers with the
// rows that exist: a top-k is sized by the rounds that ran, not by k.
func TestServerTopKBound(t *testing.T) {
	ds := dataset.Random(50, 100, 5)
	f, err := asrs.NewComposite(ds.Schema, asrs.AggSpec{Kind: asrs.Distribution, Attr: "cat"})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := asrs.NewEngine(ds, asrs.EngineOptions{IndexGranularity: 8})
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.New(server.Config{Engine: eng, Composites: map[string]*asrs.Composite{"cat": f}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	q := wire.Query{Composite: "cat", A: 20, B: 20, Target: []float64{2, 2, 2},
		Extent: &wire.Rect{MaxX: 100, MaxY: 100}, TopK: asrs.MaxTopK + 1}
	oversize := q
	oversize.TopK, oversize.A, oversize.B, oversize.Extent = 1, 1.5e308, 1.5e308, nil
	wide := oversize
	wide.A, wide.B = 20, dssearch.MaxExtent

	var single wire.Response
	for _, q := range []wire.Query{q, oversize, wide} {
		resp, body := postJSON(t, ts.URL+"/v1/query", q)
		if err := json.Unmarshal(body, &single); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || single.Code != wire.CodeBadRequest {
			t.Fatalf("/v1/query top_k %d, %g x %g: status %d, body %s; want 400 bad_request", q.TopK, q.A, q.B, resp.StatusCode, body)
		}
		resp, body = postJSON(t, ts.URL+"/v1/batch", wire.Batch{Queries: []wire.Query{q}})
		var batch wire.BatchResponse
		if err := json.Unmarshal(body, &batch); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || len(batch.Responses) != 1 ||
			batch.Responses[0].Status != http.StatusBadRequest || batch.Responses[0].Code != wire.CodeBadRequest {
			t.Fatalf("/v1/batch top_k %d, %g x %g: status %d, body %s; want a 400 bad_request member", q.TopK, q.A, q.B, resp.StatusCode, body)
		}
	}
	if st := eng.Stats(); st.Queries != 0 {
		t.Fatalf("an oversize top_k or size reached the engine: %+v", st)
	}

	q.TopK = asrs.MaxTopK
	resp, body := postJSON(t, ts.URL+"/v1/query", q)
	if err := json.Unmarshal(body, &single); err != nil {
		t.Fatal(err)
	}
	// A 100×100 extent holds at most 25 disjoint 20×20 regions.
	if n := len(single.Results); resp.StatusCode != http.StatusOK || n == 0 || n > 25 {
		t.Fatalf("/v1/query top_k %d: status %d with %d rows, want 200 with the 1–25 rows that exist; body %s", q.TopK, resp.StatusCode, n, body)
	}
}

// TestLoneClientRoundTrip: a request is answered when its search ends —
// nothing on the way to the engine waits by the clock. The median
// in-process /v1/query round trip of a lone client on a 200-object corpus
// is under a millisecond (with the 2 ms coalescing window it could not be
// under two).
func TestLoneClientRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("timing assertion")
	}
	ds := dataset.Random(200, 100, 5)
	f, err := asrs.NewComposite(ds.Schema, asrs.AggSpec{Kind: asrs.Distribution, Attr: "cat"})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := asrs.NewEngine(ds, asrs.EngineOptions{IndexGranularity: 8})
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.New(server.Config{Engine: eng, Composites: map[string]*asrs.Composite{"cat": f}})
	if err != nil {
		t.Fatal(err)
	}
	handler := s.Handler()
	body, err := json.Marshal(wire.Query{Composite: "cat", A: 10, B: 10, Target: []float64{1.5, 2.5, 3.5}})
	if err != nil {
		t.Fatal(err)
	}
	// The best of five rounds: a neighbour hogging the machine for a
	// moment must not fail a bound the window missed by construction.
	trips := make([]time.Duration, 201)
	best := time.Hour
	for round := 0; round < 5 && best >= time.Millisecond; round++ {
		for i := range trips {
			rec := httptest.NewRecorder()
			start := time.Now()
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
			trips[i] = time.Since(start)
			if rec.Code != http.StatusOK {
				t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
			}
		}
		sort.Slice(trips, func(i, j int) bool { return trips[i] < trips[j] })
		if median := trips[len(trips)/2]; median < best {
			best = median
		}
	}
	if best >= time.Millisecond {
		t.Fatalf("median round trip %v in the best of five rounds, want under 1ms", best)
	}
	t.Logf("median round trip %v", best)
}
