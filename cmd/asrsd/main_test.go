package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"asrs"
	"asrs/internal/dataset"
	"asrs/internal/faultinject"
	"asrs/internal/server"
	"asrs/internal/wire"
)

// TestHTTPServerTimeouts: the daemon's http.Server closes a connection
// that never finishes its request headers — admission is taken in the
// handler, so MaxInFlight never sees such a socket — and does not cut a
// search that runs longer than that limit on a healthy connection.
func TestHTTPServerTimeouts(t *testing.T) {
	ds := dataset.Random(50, 100, 5)
	f, err := asrs.NewComposite(ds.Schema, asrs.AggSpec{Kind: asrs.Distribution, Attr: "cat"})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := asrs.NewEngine(ds, asrs.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Engine: eng, Composites: map[string]*asrs.Composite{"cat": f}})
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer("", srv.Handler())
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.IdleTimeout != idleTimeout || readHeaderTimeout <= 0 || idleTimeout <= 0 {
		t.Fatalf("timeouts %v/%v, want the positive constants %v/%v", hs.ReadHeaderTimeout, hs.IdleTimeout, readHeaderTimeout, idleTimeout)
	}
	// The same server with the header limit shortened to test scale.
	const headerLimit = 100 * time.Millisecond
	hs.ReadHeaderTimeout = headerLimit
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()

	stalled, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if _, err := stalled.Write([]byte("POST /v1/que")); err != nil {
		t.Fatal(err)
	}

	// Meanwhile a search three times as long as the header limit answers.
	faultinject.Activate(faultinject.NewPlan(1,
		faultinject.Spec{Point: "server.dispatch.slow", Action: faultinject.ActSleep, MaxEvery: 1, Delay: 3 * headerLimit}))
	defer faultinject.Deactivate()
	body, err := json.Marshal(wire.Query{Composite: "cat", A: 20, B: 20, Target: []float64{2, 2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := http.Post("http://"+ln.Addr().String()+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("slow search on a healthy connection was cut: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || time.Since(start) < 3*headerLimit {
		t.Fatalf("slow search: status %d after %v", resp.StatusCode, time.Since(start))
	}

	// The half-sent request line gets no answer: the server hangs up.
	if err := stalled.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if rest, err := io.ReadAll(stalled); err != nil {
		t.Fatalf("stalled connection still open after %v: %v (read %q)", time.Since(start), err, rest)
	}
}
