package server_test

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asrs"
	"asrs/internal/faultinject"
	"asrs/internal/server"
	"asrs/internal/wire"
)

func decodeResponse(t *testing.T, body []byte) wire.Response {
	t.Helper()
	var wr wire.Response
	if err := json.Unmarshal(body, &wr); err != nil {
		t.Fatalf("decoding response %s: %v", body, err)
	}
	return wr
}

func decodeJSONBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestDispatchPanicFailpointIsolated: a panic injected into a /v1/query
// handler just before its search — recoverMiddleware's to answer — must
// come back as a typed 500 (code internal_panic, not retryable) — and
// the NEXT query, with the fault disarmed, must answer bit-identically.
// One failed request, not a dead daemon.
func TestDispatchPanicFailpointIsolated(t *testing.T) {
	_, ts, eng := newTestServer(t, server.Config{})
	_, _, reqs := corpus(t)
	want := eng.Query(reqs[0])
	if want.Err != nil {
		t.Fatal(want.Err)
	}

	faultinject.Activate(faultinject.NewPlan(7,
		faultinject.Spec{Point: "server.dispatch.panic", Action: faultinject.ActPanic, MaxEvery: 1}))
	resp, body := postJSON(t, ts.URL+"/v1/query", wireFor(reqs[0]))
	faultinject.Deactivate()

	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, body %s, want 500", resp.StatusCode, body)
	}
	wr := decodeResponse(t, body)
	if wr.Code != wire.CodeInternalPanic || wr.Retryable {
		t.Fatalf("code=%q retryable=%v, want internal_panic/terminal", wr.Code, wr.Retryable)
	}

	resp, body = postJSON(t, ts.URL+"/v1/query", wireFor(reqs[0]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-fault status = %d, body %s", resp.StatusCode, body)
	}
	wr = decodeResponse(t, body)
	if math.Float64bits(wr.Results[0].Dist) != math.Float64bits(want.Results[0].Dist) {
		t.Fatalf("post-fault answer %v, want %v", wr.Results[0].Dist, want.Results[0].Dist)
	}
}

// TestQueryPanicOutsideKernel: a /v1/query whose search panics outside
// the kernel's item boundary (in a composite's selection function)
// panics its handler: it answers 500 internal_panic, gives back its
// admission token and drain registration on the way out, and the next
// query answers with the engine's own bits.
func TestQueryPanicOutsideKernel(t *testing.T) {
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
	want := eng.Query(reqs[0])
	if want.Err != nil {
		t.Fatal(want.Err)
	}

	armed.Store(true)
	resp, body := postJSON(t, ts.URL+"/v1/query", wire.Query{Composite: "boom", A: reqs[0].A, B: reqs[0].B, Target: []float64{3}})
	armed.Store(false)
	if wr := decodeResponse(t, body); resp.StatusCode != http.StatusInternalServerError || wr.Code != wire.CodeInternalPanic {
		t.Fatalf("panicking query: status %d code %q, want 500 internal_panic", resp.StatusCode, wr.Code)
	}
	if st := getStats(t, ts.URL); st.InFlight != 0 {
		t.Fatalf("in_flight = %d after the panic, want 0", st.InFlight)
	}
	resp, body = postJSON(t, ts.URL+"/v1/query", wireFor(reqs[0]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after the panic: status = %d, body %s", resp.StatusCode, body)
	}
	if wr := decodeResponse(t, body); math.Float64bits(wr.Results[0].Dist) != math.Float64bits(want.Results[0].Dist) {
		t.Fatalf("query after the panic: %v, want %v", wr.Results[0].Dist, want.Results[0].Dist)
	}
}

// TestKernelPanicSurfacesThrough: a panic injected inside the kernel's
// concurrent hot loop must ride the whole ladder — recover() at the
// item boundary, *kernel.PanicError through Searcher.Err and the
// engine, classify() in the server — and arrive as a 500 with code
// internal_panic. Recovery is per-query: disarm and the server
// answers again. The fault point is visited only by a search that runs a
// kernel item, and an indexed query whose every bound is at or above the
// empty region's distance runs none: the request is checked to search a
// cell.
func TestKernelPanicSurfacesThrough(t *testing.T) {
	_, ts, eng := newTestServer(t, server.Config{})
	ds, f, reqs := corpus(t)
	req := reqs[4]
	want := eng.Query(req)
	if want.Err != nil {
		t.Fatal(want.Err)
	}
	idx, err := eng.Index(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, stats := asrs.Answer(ds, idx, req); stats.CellsSearched == 0 {
		t.Fatal("the request searches no index cell: kernel.process.panic would go unvisited")
	}

	faultinject.Activate(faultinject.NewPlan(9,
		faultinject.Spec{Point: "kernel.process.panic", Action: faultinject.ActPanic, MaxEvery: 1}))
	resp, body := postJSON(t, ts.URL+"/v1/query", wireFor(req))
	faultinject.Deactivate()

	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, body %s, want 500", resp.StatusCode, body)
	}
	wr := decodeResponse(t, body)
	if wr.Code != wire.CodeInternalPanic || wr.Retryable {
		t.Fatalf("code=%q retryable=%v, want internal_panic/terminal", wr.Code, wr.Retryable)
	}

	resp, body = postJSON(t, ts.URL+"/v1/query", wireFor(req))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-fault status = %d, body %s", resp.StatusCode, body)
	}
	wr = decodeResponse(t, body)
	if math.Float64bits(wr.Results[0].Dist) != math.Float64bits(want.Results[0].Dist) {
		t.Fatalf("post-fault answer %v, want %v", wr.Results[0].Dist, want.Results[0].Dist)
	}
}

// TestShedCarriesRetryAfterAndBrownout: under a slow dispatch and a
// one-token admission bound, concurrent traffic sheds with 429s whose
// Retry-After is a positive integer and whose body carries the
// overloaded/retryable taxonomy; sustained shedding steps the brownout
// ladder down, visible in /healthz and /stats, and a stepped-down server
// sheds inserts first.
func TestShedCarriesRetryAfterAndBrownout(t *testing.T) {
	_, ts, _ := newTestServer(t, server.Config{MaxInFlight: 1})
	_, _, reqs := corpus(t)

	// Every dispatch stalls 300ms, so one admitted query holds the only
	// token while the others arrive and shed.
	faultinject.Activate(faultinject.NewPlan(3,
		faultinject.Spec{Point: "server.dispatch.slow", Action: faultinject.ActSleep, MaxEvery: 1, Delay: 300 * time.Millisecond}))
	defer faultinject.Deactivate()

	var (
		mu    sync.Mutex
		sheds int
	)
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/v1/query", wireFor(reqs[i%len(reqs)]))
			if resp.StatusCode != http.StatusTooManyRequests {
				return
			}
			ra := resp.Header.Get("Retry-After")
			secs, err := strconv.Atoi(ra)
			if err != nil || secs < 1 {
				t.Errorf("429 Retry-After = %q, want integer >= 1", ra)
			}
			wr := decodeResponse(t, body)
			if wr.Code != wire.CodeOverloaded || !wr.Retryable {
				t.Errorf("shed code=%q retryable=%v, want overloaded/retryable", wr.Code, wr.Retryable)
			}
			mu.Lock()
			sheds++
			mu.Unlock()
		}(i)
	}
	wg.Wait()

	if sheds < 8 {
		t.Fatalf("only %d sheds; the overload scenario did not materialize", sheds)
	}
	st := getStats(t, ts.URL)
	if !st.Degraded || st.DegradeLevel < 1 {
		t.Fatalf("stats degraded=%v level=%d after %d sheds, want brownout", st.Degraded, st.DegradeLevel, sheds)
	}
	if st.BrownoutEntries < 1 {
		t.Fatalf("brownout entries = %d, want >= 1", st.BrownoutEntries)
	}
	if st.Shed < int64(sheds) {
		t.Fatalf("stats count %d sheds, clients saw %d", st.Shed, sheds)
	}

	// A degraded server sheds inserts first, before admission, with the
	// same Retry-After contract.
	iresp, ibody := postJSON(t, ts.URL+"/v1/insert", wire.Insert{Objects: []wire.InsertObject{{}}})
	if iresp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("insert under brownout = %d, body %s — want 429", iresp.StatusCode, ibody)
	}
	if secs, err := strconv.Atoi(iresp.Header.Get("Retry-After")); err != nil || secs < 1 {
		t.Fatalf("shed insert Retry-After = %q, want integer >= 1", iresp.Header.Get("Retry-After"))
	}
	if wr := decodeResponse(t, ibody); wr.Code != wire.CodeOverloaded || !wr.Retryable {
		t.Fatalf("shed insert code=%q retryable=%v, want overloaded/retryable", wr.Code, wr.Retryable)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz struct {
		Status string `json:"status"`
		Level  int    `json:"degrade_level"`
	}
	decodeJSONBody(t, resp, &hz)
	if hz.Status != "degraded" || hz.Level < 1 {
		t.Fatalf("healthz = %+v, want degraded with level >= 1", hz)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded healthz status = %d, want 200 (still serving)", resp.StatusCode)
	}
}
