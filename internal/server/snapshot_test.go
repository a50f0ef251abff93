package server_test

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"asrs"
	"asrs/internal/dataset"
	"asrs/internal/faultinject"
	"asrs/internal/server"
	"asrs/internal/shard"
	"asrs/internal/wire"
)

// insertHook is a count channel's selection function that inserts a batch
// the first time it runs once armed. A region-target /v1/query armed just
// before it is sent runs it while its example region is represented: after
// the request opened its snapshot, before its search.
type insertHook struct {
	armed  atomic.Bool
	insert func()
}

func (h *insertHook) selector(*asrs.Object) bool {
	if h.armed.CompareAndSwap(true, false) {
		h.insert()
	}
	return true
}

// snapshotFixture is the corpus, the hooked composite, the example region
// and the insert the snapshot tests share. The insert lands inside the
// example region, so it moves the region's representation: a search that
// read it would not find the pre-insert target at distance 0.
func snapshotFixture(t *testing.T) (*asrs.Dataset, *asrs.Composite, *insertHook, asrs.Rect, []asrs.Object) {
	t.Helper()
	ds := dataset.Random(2000, 100, 61)
	h := &insertHook{}
	f, err := asrs.NewComposite(ds.Schema,
		asrs.AggSpec{Kind: asrs.Distribution, Attr: "cat"},
		asrs.AggSpec{Kind: asrs.Sum, Attr: "val"},
		asrs.AggSpec{Kind: asrs.Count, Select: h.selector},
	)
	if err != nil {
		t.Fatal(err)
	}
	ex := asrs.Rect{MinX: 31, MinY: 40, MaxX: 39, MaxY: 48}
	var extra []asrs.Object
	for i := 0; i < 5; i++ {
		extra = append(extra, asrs.Object{
			Loc:    asrs.Point{X: 33 + float64(i), Y: 44.25},
			Values: []asrs.Value{{Cat: i % 3}, {Num: 3.25 + float64(i)}},
		})
	}
	return ds, f, h, ex, extra
}

// queryRows posts a region-target /v1/query and returns its answer.
func queryRows(t *testing.T, url string, wq wire.Query) wire.Response {
	t.Helper()
	resp, body := postJSON(t, url+"/v1/query", wq)
	var wr wire.Response
	if err := json.Unmarshal(body, &wr); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	return wr
}

// checkSnapshotRows holds a /v1/query's rows to the pre-insert corpus's
// answer, bit for bit, with the example region row 1 at distance exactly 0.
func checkSnapshotRows(t *testing.T, got wire.Response, want asrs.QueryResponse) {
	t.Helper()
	if want.Err != nil {
		t.Fatal(want.Err)
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("%d rows, the pre-insert corpus answers %d", len(got.Results), len(want.Results))
	}
	if d := got.Results[0].Dist; math.Float64bits(d) != 0 {
		t.Fatalf("row 1 at distance %v: the example region was not found at 0, so its target and its search read different corpora", d)
	}
	for i, r := range got.Results {
		w, wr := want.Results[i], want.Regions[i]
		if !sameWireRect(r.Region, wr) || !sameF(r.Dist, w.Dist) || !sameF(r.Point.X, w.Point.X) ||
			!sameF(r.Point.Y, w.Point.Y) || !sameVec(r.Rep, w.Rep) {
			t.Fatalf("row %d: %+v dist %v, the pre-insert corpus answers %v dist %v", i+1, r.Region, r.Dist, wr, w.Dist)
		}
	}
}

// checkFreshMoves fails a test whose insert would not have shown: a fresh
// request, on the epoch after it, must answer a different row 1.
func checkFreshMoves(t *testing.T, fresh, before wire.Response) {
	t.Helper()
	if sameVec(fresh.Results[0].Rep, before.Results[0].Rep) {
		t.Fatal("the insert leaves a fresh request's row 1 unchanged: the test shows nothing")
	}
}

func sameF(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameWireRect(a wire.Rect, b asrs.Rect) bool {
	return sameF(a.MinX, b.MinX) && sameF(a.MinY, b.MinY) && sameF(a.MaxX, b.MaxX) && sameF(a.MaxY, b.MaxY)
}

func sameVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameF(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestQueryRegionTargetReadsOneEpoch: a region-target /v1/query, and a
// /v1/batch of two, represent the example region on the epoch they search,
// so an insert that lands between the two reaches neither: the example
// region is row 1 at distance 0 and the rows are the pre-insert corpus's.
func TestQueryRegionTargetReadsOneEpoch(t *testing.T) {
	for _, door := range []string{"/v1/query", "/v1/batch"} {
		t.Run(door[4:], func(t *testing.T) {
			before := runtime.NumGoroutine()
			ds, f, h, ex, extra := snapshotFixture(t)
			opt := asrs.EngineOptions{IndexGranularity: 16}
			eng, err := asrs.NewEngine(ds, opt)
			if err != nil {
				t.Fatal(err)
			}
			pre, err := asrs.NewEngine(ds, opt)
			if err != nil {
				t.Fatal(err)
			}
			s, err := server.New(server.Config{Engine: eng, Composites: map[string]*asrs.Composite{"q": f}})
			if err != nil {
				t.Fatal(err)
			}
			ts := httpServer(t, s, before)
			if err := eng.Warm(f); err != nil { // pyramid builds run the selector too
				t.Fatal(err)
			}
			h.insert = func() {
				if err := eng.InsertBatch(extra); err != nil {
					t.Error(err)
				}
			}
			wq := wire.Query{Composite: "q", Region: wireRect(ex), TopK: 3}
			ask := func() []wire.Response {
				if door == "/v1/query" {
					return []wire.Response{queryRows(t, ts.URL, wq)}
				}
				resp, body := postJSON(t, ts.URL+door, wire.Batch{Queries: []wire.Query{wq, wq}})
				var wb wire.BatchResponse
				if err := json.Unmarshal(body, &wb); err != nil || resp.StatusCode != http.StatusOK {
					t.Fatalf("status %d, body %s", resp.StatusCode, body)
				}
				return wb.Responses
			}
			h.armed.Store(true)
			got := ask()
			if h.armed.Load() || eng.Stats().Ingested != int64(len(extra)) {
				t.Fatal("the insert never ran")
			}
			q, err := asrs.QueryFromRegion(ds, f, nil, ex)
			if err != nil {
				t.Fatal(err)
			}
			want := pre.Query(asrs.QueryRequest{Query: q, A: ex.Width(), B: ex.Height(), TopK: 3})
			for _, g := range got {
				checkSnapshotRows(t, g, want)
			}
			checkFreshMoves(t, ask()[0], got[0])
		})
	}
}

// TestRoutedQueryRegionTargetReadsOneSnapshot: on a 4-shard router a
// region-target /v1/query represents its example region on its session's
// merged corpus and searches the shard views that session pinned, so an
// insert between the two reaches neither. The extent lies in one shard's
// slab, so the answer is that shard's own, bit for bit.
func TestRoutedQueryRegionTargetReadsOneSnapshot(t *testing.T) {
	before := runtime.NumGoroutine()
	ds, f, h, ex, extra := snapshotFixture(t)
	newRouter := func() *shard.Router {
		cat, err := shard.New(ds, shard.Config{Shards: 4, Composites: map[string]*asrs.Composite{"q": f}, Names: []string{"q"}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cat.Close() })
		return shard.NewRouter(cat, shard.RouterOptions{Breaker: shard.BreakerConfig{Disable: true}})
	}
	rt, pre := newRouter(), newRouter()
	cuts := rt.Catalog().Cuts()
	extent := asrs.Rect{MinX: cuts[0], MinY: 0, MaxX: cuts[1], MaxY: 100}
	if !(extent.MinX < ex.MinX && ex.MaxX < extent.MaxX) {
		t.Fatalf("the example region %v is not inside shard-1's slab %v", ex, extent)
	}
	s, err := server.New(server.Config{Router: rt, Composites: map[string]*asrs.Composite{"q": f}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httpServer(t, s, before)
	if err := rt.Catalog().WarmAll(); err != nil { // a shard's load runs the selector too
		t.Fatal(err)
	}
	h.insert = func() {
		if err := rt.Insert(extra); err != nil {
			t.Error(err)
		}
	}
	wq := wire.Query{Composite: "q", Region: wireRect(ex), TopK: 3, Extent: wireRect(extent)}
	h.armed.Store(true)
	got := queryRows(t, ts.URL, wq)
	if h.armed.Load() || rt.Catalog().Shards()[1].Loaded().Stats().Ingested != int64(len(extra)) {
		t.Fatal("the insert never ran")
	}
	q, err := asrs.QueryFromRegion(ds, f, nil, ex)
	if err != nil {
		t.Fatal(err)
	}
	want := pre.Answer(context.Background(), asrs.QueryRequest{Query: q, A: ex.Width(), B: ex.Height(), TopK: 3, Within: &extent}, "")
	checkSnapshotRows(t, got, asrs.QueryResponse{Regions: want.Regions, Results: want.Results, Err: want.Err})
	checkFreshMoves(t, queryRows(t, ts.URL, wq), got)
}

// TestLazyShardsStayUnloadedAtBoot: building the server reads the serving
// schema without opening a snapshot, so no shard loads before traffic, and
// /readyz names every shard until the first routed request loads them.
func TestLazyShardsStayUnloadedAtBoot(t *testing.T) {
	_, ts, rt, _, f := newShardServer(t, server.Config{}, shard.BreakerConfig{})
	unloaded := func() []string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var pl struct {
			Status   string   `json:"status"`
			Unloaded []string `json:"unloaded_shards"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&pl); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("/readyz: status %d, %v", resp.StatusCode, err)
		}
		return pl.Unloaded
	}
	for _, sh := range rt.Catalog().Shards() {
		if sh.Loaded() != nil {
			t.Fatalf("%s loaded by server.New", sh.Name())
		}
	}
	if got := unloaded(); len(got) != 3 {
		t.Fatalf("/readyz unloaded_shards = %v before any request, want all three", got)
	}
	if got := unloaded(); len(got) != 3 {
		t.Fatalf("/readyz unloaded_shards = %v after a readiness probe, want all three", got)
	}
	tgt := make([]float64, f.Dims())
	queryRows(t, ts.URL, wire.Query{Composite: "q", A: 5, B: 5, Target: tgt})
	if got := unloaded(); len(got) != 0 {
		t.Fatalf("/readyz unloaded_shards = %v after a whole-corpus query, want none", got)
	}
}

// TestQueryDefaultDeadlineHeldToMaxTimeout: every front door holds the
// default deadline to MaxTimeout, so a /v1/query without timeout_ms that
// stalls past MaxTimeout is a 504, not an answer at the longer default.
func TestQueryDefaultDeadlineHeldToMaxTimeout(t *testing.T) {
	_, ts, _ := newTestServer(t, server.Config{Timeout: 10 * time.Second, MaxTimeout: 50 * time.Millisecond})
	_, _, reqs := corpus(t)
	faultinject.Activate(faultinject.NewPlan(3,
		faultinject.Spec{Point: "server.dispatch.slow", Action: faultinject.ActSleep, MaxEvery: 1, Delay: 200 * time.Millisecond}))
	defer faultinject.Deactivate()
	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/v1/query", wireFor(reqs[0]))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d after %v, want 504 at MaxTimeout: %s", resp.StatusCode, time.Since(start), body)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("the 504 took %v", el)
	}
}

// httpServer serves s over a test listener whose clean-up drains it and
// checks for leaked goroutines against before.
func httpServer(t *testing.T, s *server.Server, before int) *httptest.Server {
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { closeAndCheckLeaks(t, s, ts, before) })
	return ts
}

func wireRect(r asrs.Rect) *wire.Rect {
	return &wire.Rect{MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY}
}
