package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"asrs"
	"asrs/internal/dataset"
	"asrs/internal/faultinject"
	"asrs/internal/server"
	"asrs/internal/shard"
	"asrs/internal/wire"
)

// shardCorpus is the small routed-serving fixture: a random corpus, its
// composite, and the routed query's target.
func shardCorpus(t *testing.T) (*asrs.Dataset, *asrs.Composite) {
	t.Helper()
	ds := dataset.Random(60, 100, 77)
	f, err := asrs.NewComposite(ds.Schema,
		asrs.AggSpec{Kind: asrs.Distribution, Attr: "cat"},
		asrs.AggSpec{Kind: asrs.Sum, Attr: "val"},
	)
	if err != nil {
		t.Fatal(err)
	}
	return ds, f
}

// newShardServer builds a 3-shard router-mode server over shardCorpus;
// its clean-up is newTestServer's, leak check included.
func newShardServer(t *testing.T, cfg server.Config, breaker shard.BreakerConfig) (*server.Server, *httptest.Server, *shard.Router, *asrs.Dataset, *asrs.Composite) {
	t.Helper()
	before := runtime.NumGoroutine()
	ds, f := shardCorpus(t)
	cat, err := shard.New(ds, shard.Config{
		Shards:     3,
		Composites: map[string]*asrs.Composite{"q": f},
		Names:      []string{"q"},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cat.Close() })
	rt := shard.NewRouter(cat, shard.RouterOptions{Breaker: breaker})
	cfg.Router = rt
	cfg.Composites = map[string]*asrs.Composite{"q": f}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { closeAndCheckLeaks(t, s, ts, before) })
	return s, ts, rt, ds, f
}

// TestInsertRefusedObjectIsBadRequest: an object the schema refuses — a
// JSON-valid 1e-320, which no exact limb holds, or a location at x =
// 9e307, beyond the bound that keeps a corpus's bounding box finite —
// makes an insert a 400
// bad_request, counted in bad_requests, on the engine and the router
// insert paths alike, and leaves every WAL as it was: the router refuses
// the batch before any shard stages its share of it.
func TestInsertRefusedObjectIsBadRequest(t *testing.T) {
	ds, f := shardCorpus(t)
	dir := t.TempDir()
	eng, err := asrs.NewEngine(ds, asrs.EngineOptions{Ingest: asrs.IngestOptions{WALDir: filepath.Join(dir, "engine")}})
	if err != nil {
		t.Fatal(err)
	}
	cat, err := shard.New(ds, shard.Config{
		Shards:     3,
		Composites: map[string]*asrs.Composite{"q": f},
		Names:      []string{"q"},
		WALRoot:    filepath.Join(dir, "shards"),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cat.Close() })
	if err := cat.WarmAll(); err != nil {
		t.Fatal(err)
	}
	wals := func() map[string]string {
		files := map[string]string{}
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			b, err := os.ReadFile(path)
			files[path] = string(b)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	for _, cfg := range []server.Config{{Engine: eng}, {Router: shard.NewRouter(cat, shard.RouterOptions{})}} {
		cfg.Composites = map[string]*asrs.Composite{"q": f}
		s, err := server.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		before := wals()
		for i, refused := range []wire.InsertObject{
			{X: 95, Y: 95, Values: map[string]any{"cat": "b", "val": 1e-320}},
			{X: 9e307, Y: 95, Values: map[string]any{"cat": "b", "val": 1.5}},
		} {
			resp, body := postJSON(t, ts.URL+"/v1/insert", wire.Insert{Objects: []wire.InsertObject{
				{X: 5, Y: 5, Values: map[string]any{"cat": "a", "val": 1.5}},
				refused,
			}})
			var wr wire.Response
			if err := json.Unmarshal(body, &wr); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest || wr.Code != wire.CodeBadRequest {
				t.Fatalf("router=%v: status %d code %q (%s), want 400 bad_request", cfg.Router != nil, resp.StatusCode, wr.Code, body)
			}
			if st := getStats(t, ts.URL); st.BadRequests != int64(i+1) {
				t.Fatalf("router=%v: bad_requests = %d, want %d", cfg.Router != nil, st.BadRequests, i+1)
			}
		}
		if !maps.Equal(before, wals()) {
			t.Fatalf("router=%v: a refused insert changed the WAL", cfg.Router != nil)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = s.Shutdown(ctx)
		cancel()
		ts.Close()
	}
	if n := len(eng.IngestedObjects()); n != 0 {
		t.Fatalf("the engine staged %d objects", n)
	}
}

// TestServerRouterEndToEnd: a router-mode server must answer extent
// queries — contained in one slab and straddling cuts — with the same
// distance bits as a merged-corpus windowed search, report full shard
// coverage, expose the per-shard /stats breakdown, and route inserts.
func TestServerRouterEndToEnd(t *testing.T) {
	_, ts, _, ds, f := newShardServer(t, server.Config{}, shard.BreakerConfig{})
	q := asrs.Query{F: f, Target: []float64{1, 2, 1, 5}}
	extents := []asrs.Rect{
		{MinX: 2, MinY: 2, MaxX: 98, MaxY: 98}, // straddles every cut
		{MinX: 1, MinY: 1, MaxX: 30, MaxY: 99}, // contained left
		{MinX: 20, MinY: 10, MaxX: 80, MaxY: 90},
	}
	for _, e := range extents {
		_, want, _, err := asrs.SearchWithin(ds, 7, 7, q, e, nil, asrs.Options{})
		if err != nil {
			t.Fatal(err)
		}
		we := wire.RectWire(e)
		resp, body := postJSON(t, ts.URL+"/v1/query", wire.Query{
			Composite: "q", A: 7, B: 7,
			Target: append([]float64(nil), q.Target...),
			Extent: &we,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("extent %+v: status = %d, body %s", e, resp.StatusCode, body)
		}
		var wr wire.Response
		if err := json.Unmarshal(body, &wr); err != nil {
			t.Fatal(err)
		}
		if len(wr.Results) != 1 {
			t.Fatalf("extent %+v: results = %d, want 1", e, len(wr.Results))
		}
		if math.Float64bits(wr.Results[0].Dist) != math.Float64bits(want.Dist) {
			t.Fatalf("extent %+v: routed dist %v != merged dist %v", e, wr.Results[0].Dist, want.Dist)
		}
		if wr.Coverage == nil || wr.Coverage.Shards != 3 || len(wr.Coverage.Skipped) != 0 {
			t.Fatalf("extent %+v: coverage = %+v, want 3 shards, no skips", e, wr.Coverage)
		}
	}

	// The per-shard stats breakdown rides on /stats in router mode.
	st := getStats(t, ts.URL)
	if st.Shards == nil || len(st.Shards.Shards) != 3 {
		t.Fatalf("stats.shards = %+v, want 3 shards", st.Shards)
	}

	// Inserts route by x through the shard engines' ingest path.
	resp, body := postJSON(t, ts.URL+"/v1/insert", wire.Insert{Objects: []wire.InsertObject{
		{X: 5, Y: 5, Values: map[string]any{"cat": "a", "val": 3.5}},
		{X: 95, Y: 95, Values: map[string]any{"cat": "b", "val": -1.0}},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert status = %d, body %s", resp.StatusCode, body)
	}
	var ir wire.InsertResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Ingested != 2 || ir.TotalIngested != 2 {
		t.Fatalf("insert ack = %+v, want 2/2", ir)
	}
	// Each end shard took one object, and /stats counts it.
	st = getStats(t, ts.URL)
	for i, si := range st.Shards.Shards {
		want := 0
		if i == 0 || i == len(st.Shards.Shards)-1 {
			want = 1
		}
		if si.Ingested != want || si.Engine == nil || si.Engine.Ingested != int64(want) {
			t.Fatalf("stats.shards[%d] = %+v, want %d ingested", i, si, want)
		}
	}

	// partial is a sharded-server knob with a closed vocabulary.
	resp, _ = postJSON(t, ts.URL+"/v1/query", wire.Query{
		Composite: "q", A: 7, B: 7, Target: append([]float64(nil), q.Target...),
		Partial: "bogus",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus partial = %d, want 400", resp.StatusCode)
	}
}

// TestServerRouterBatch: a routed /v1/batch whose members mix partial
// policies (and carry a malformed one) answers every member in place: the
// 400 where it was sent, every other member with the merged-corpus bits
// and full coverage.
func TestServerRouterBatch(t *testing.T) {
	_, ts, _, ds, f := newShardServer(t, server.Config{}, shard.BreakerConfig{})
	q := asrs.Query{F: f, Target: []float64{1, 2, 1, 5}}
	e := asrs.Rect{MinX: 2, MinY: 2, MaxX: 98, MaxY: 98}
	_, want, _, err := asrs.SearchWithin(ds, 7, 7, q, e, nil, asrs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	we := wire.RectWire(e)
	policies := []string{"", "best_effort", "bogus", "strict", ""}
	var wb wire.Batch
	for _, p := range policies {
		wb.Queries = append(wb.Queries, wire.Query{Composite: "q", A: 7, B: 7,
			Target: append([]float64(nil), q.Target...), Extent: &we, Partial: p})
	}
	resp, body := postJSON(t, ts.URL+"/v1/batch", wb)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var br wire.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Responses) != len(policies) {
		t.Fatalf("%d responses for %d members", len(br.Responses), len(policies))
	}
	for i, r := range br.Responses {
		if policies[i] == "bogus" {
			if r.Status != http.StatusBadRequest {
				t.Fatalf("member %d (partial %q): status %d, want 400", i, policies[i], r.Status)
			}
			continue
		}
		if r.Status != http.StatusOK || len(r.Results) != 1 ||
			math.Float64bits(r.Results[0].Dist) != math.Float64bits(want.Dist) {
			t.Fatalf("member %d (partial %q): status %d results %+v, want 200 with dist %v",
				i, policies[i], r.Status, r.Results, want.Dist)
		}
		if r.Coverage == nil || r.Coverage.Shards != 3 || len(r.Coverage.Skipped) != 0 {
			t.Fatalf("member %d (partial %q): coverage %+v, want 3 shards, no skips", i, policies[i], r.Coverage)
		}
	}
}

// TestServerEngineExtent: a single-engine server serves the same extent
// wire field through the windowed search path, and rejects the
// shard-only partial knob.
func TestServerEngineExtent(t *testing.T) {
	ds, f := shardCorpus(t)
	eng, err := asrs.NewEngine(ds, asrs.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.New(server.Config{Engine: eng, Composites: map[string]*asrs.Composite{"q": f}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	q := asrs.Query{F: f, Target: []float64{1, 2, 1, 5}}
	e := asrs.Rect{MinX: 10, MinY: 10, MaxX: 90, MaxY: 90}
	_, want, _, err := asrs.SearchWithin(ds, 7, 7, q, e, nil, asrs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	we := wire.RectWire(e)
	resp, body := postJSON(t, ts.URL+"/v1/query", wire.Query{
		Composite: "q", A: 7, B: 7,
		Target: append([]float64(nil), q.Target...),
		Extent: &we,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var wr wire.Response
	if err := json.Unmarshal(body, &wr); err != nil {
		t.Fatal(err)
	}
	if len(wr.Results) != 1 || math.Float64bits(wr.Results[0].Dist) != math.Float64bits(want.Dist) {
		t.Fatalf("windowed dist %+v != oracle %v", wr.Results, want.Dist)
	}
	if wr.Coverage != nil {
		t.Fatalf("engine-mode response has coverage %+v", wr.Coverage)
	}

	resp, _ = postJSON(t, ts.URL+"/v1/query", wire.Query{
		Composite: "q", A: 7, B: 7, Target: append([]float64(nil), q.Target...),
		Partial: "strict",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("partial on engine server = %d, want 400", resp.StatusCode)
	}
}

// TestServerShardUnavailable: when every shard is lost (panic faults
// trip threshold-1 breakers with an hour of backoff), a strict routed
// query answers 503 with the typed shard_unavailable code, retryable,
// and coverage naming each skipped shard; best_effort with zero
// survivors is equally a 503.
func TestServerShardUnavailable(t *testing.T) {
	_, ts, _, _, _ := newShardServer(t, server.Config{}, shard.BreakerConfig{
		FailureThreshold: 1,
		BaseBackoff:      time.Hour,
		MaxBackoff:       time.Hour,
	})
	t.Cleanup(faultinject.Deactivate)
	faultinject.Activate(faultinject.NewPlan(1,
		faultinject.Spec{Point: "shard.search.panic", Action: faultinject.ActPanic, MaxEvery: 1},
	))

	q := []float64{1, 2, 1, 5}
	straddler := wire.Rect{MinX: 2, MinY: 2, MaxX: 98, MaxY: 98}
	for _, partial := range []string{"strict", "best_effort"} {
		resp, body := postJSON(t, ts.URL+"/v1/query", wire.Query{
			Composite: "q", A: 7, B: 7,
			Target:  append([]float64(nil), q...),
			Extent:  &straddler,
			Partial: partial,
		})
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s: status = %d, body %s", partial, resp.StatusCode, body)
		}
		var wr wire.Response
		if err := json.Unmarshal(body, &wr); err != nil {
			t.Fatal(err)
		}
		if wr.Code != "shard_unavailable" || !wr.Retryable {
			t.Fatalf("%s: code %q retryable %v, want shard_unavailable/true", partial, wr.Code, wr.Retryable)
		}
		if wr.Coverage == nil || len(wr.Coverage.Skipped) == 0 {
			t.Fatalf("%s: coverage %+v, want named skips", partial, wr.Coverage)
		}
	}

	// The per-shard breaker state is visible in /stats.
	st := getStats(t, ts.URL)
	if st.Shards == nil {
		t.Fatal("stats.shards missing in router mode")
	}
	open := 0
	for _, si := range st.Shards.Shards {
		if si.Breaker.State == "open" {
			open++
		}
	}
	if open == 0 {
		t.Fatalf("no open breakers after total loss: %+v", st.Shards.Shards)
	}
}

// TestServerReadyz: a StartUnready server reports warming on /readyz
// (while /healthz stays live) until SetReady flips the gate; once ready,
// the payload names exactly the shards that have no engine.
func TestServerReadyz(t *testing.T) {
	s, ts, rt, _, _ := newShardServer(t, server.Config{StartUnready: true}, shard.BreakerConfig{})

	var pl map[string]any
	check := func(path string, wantStatus int, wantState string) {
		t.Helper()
		pl = nil
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&pl); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != wantStatus || pl["status"] != wantState {
			t.Fatalf("%s = %d %v, want %d %q", path, resp.StatusCode, pl, wantStatus, wantState)
		}
	}
	check("/readyz", http.StatusServiceUnavailable, "warming")
	check("/healthz", http.StatusOK, "ok")
	if err := rt.Catalog().WarmAll(); err != nil {
		t.Fatal(err)
	}
	s.SetReady(true)
	check("/readyz", http.StatusOK, "ready")
	if _, listed := pl["unloaded_shards"]; listed {
		t.Fatalf("every shard is loaded, yet /readyz lists %v", pl["unloaded_shards"])
	}
	if err := rt.Catalog().Shards()[1].Close(); err != nil {
		t.Fatal(err)
	}
	check("/readyz", http.StatusOK, "ready")
	if got := fmt.Sprint(pl["unloaded_shards"]); got != "[shard-1]" {
		t.Fatalf("/readyz unloaded_shards = %s, want [shard-1]", got)
	}
}
