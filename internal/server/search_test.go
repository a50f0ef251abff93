package server_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"testing"
	"time"

	"asrs/internal/dataset"
	"asrs/internal/faultinject"
	"asrs/internal/server"
	"asrs/internal/wire"
)

// postSearch sends a /v1/search request and returns the NDJSON rows
// with the arrival time of each line.
func postSearch(t *testing.T, url string, sq wire.Search) ([]wire.SearchRow, []time.Duration, *http.Response) {
	t.Helper()
	raw, err := json.Marshal(sq)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := http.Post(url+"/v1/search", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rows []wire.SearchRow
	var at []time.Duration
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var row wire.SearchRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		rows = append(rows, row)
		at = append(at, time.Since(start))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows, at, resp
}

// TestSearchMatchesQueryEndpoint: the expression front door and the
// struct front door answer identically. The @poi expression resolves
// the same registered composite singleton the wire query names, so
// every region, point and distance must agree exactly.
func TestSearchMatchesQueryEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t, server.Config{})
	orchard := dataset.SingaporeDistricts()[0].Rect

	rows, _, resp := postSearch(t, ts.URL, wire.Search{
		Q: `find top 2 similar to region(103.827,1.298,103.843,1.310) under @poi excluding example`,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d", resp.StatusCode)
	}
	if len(rows) != 3 || !rows[2].Done || rows[2].Count != 2 {
		t.Fatalf("expected 2 result rows + done row, got %+v", rows)
	}

	hresp, body := postJSON(t, ts.URL+"/v1/query", wire.Query{
		Composite:     "poi",
		Region:        &wire.Rect{MinX: orchard.MinX, MinY: orchard.MinY, MaxX: orchard.MaxX, MaxY: orchard.MaxY},
		ExcludeRegion: true,
		TopK:          2,
	})
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", hresp.StatusCode, body)
	}
	var want wire.Response
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatal(err)
	}
	if len(want.Results) != 2 {
		t.Fatalf("struct answer has %d results", len(want.Results))
	}
	for i := 0; i < 2; i++ {
		got, exp := rows[i].Result, want.Results[i]
		if got == nil {
			t.Fatalf("row %d has no result", i)
		}
		if !sameResult(*got, exp) {
			t.Errorf("row %d: search %+v != query %+v", i, *got, exp)
		}
	}
}

func sameResult(a, b wire.Result) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !eq(a.Dist, b.Dist) || !eq(a.Point.X, b.Point.X) || !eq(a.Point.Y, b.Point.Y) {
		return false
	}
	if !eq(a.Region.MinX, b.Region.MinX) || !eq(a.Region.MinY, b.Region.MinY) ||
		!eq(a.Region.MaxX, b.Region.MaxX) || !eq(a.Region.MaxY, b.Region.MaxY) {
		return false
	}
	if len(a.Rep) != len(b.Rep) {
		return false
	}
	for i := range a.Rep {
		if !eq(a.Rep[i], b.Rep[i]) {
			return false
		}
	}
	return true
}

// TestSearchStreamsLazily: with a per-round stall injected, the first
// result row must arrive while later rounds are still asleep — proof
// the stream is on the wire before the full set is materialized.
func TestSearchStreamsLazily(t *testing.T) {
	_, ts, _ := newTestServer(t, server.Config{})
	const stall = 300 * time.Millisecond
	faultinject.Activate(faultinject.NewPlan(3,
		faultinject.Spec{Point: "server.search.round", Action: faultinject.ActSleep, MaxEvery: 1, Delay: stall}))
	defer faultinject.Deactivate()

	rows, at, resp := postSearch(t, ts.URL, wire.Search{
		Q: `find top 3 similar to region(103.827,1.298,103.843,1.310) under @poi excluding example`,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d", resp.StatusCode)
	}
	if len(rows) != 4 || !rows[3].Done {
		t.Fatalf("expected 3 result rows + done row, got %d rows", len(rows))
	}
	// Row 1 flushes before the first stall; the done row sits behind
	// three stalls. Generous margins keep this robust under CI noise.
	if at[0] >= stall {
		t.Errorf("first row took %v, want < %v (stream not lazy)", at[0], stall)
	}
	if total := at[len(at)-1]; total < 2*stall {
		t.Errorf("done row took %v, want >= %v (stall not exercised — did the round hook move?)", total, 2*stall)
	}
}

// TestSearchExplain: an EXPLAIN query answers with one JSON report
// document, not a stream.
func TestSearchExplain(t *testing.T) {
	_, ts, _ := newTestServer(t, server.Config{})
	resp, body := postJSON(t, ts.URL+"/v1/search", wire.Search{
		Q: `explain find top 2 similar to region(103.827,1.298,103.843,1.310) under @poi excluding example`,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var rep struct {
		Canonical string `json:"canonical"`
		Composite string `json:"composite"`
		Strategy  string `json:"strategy"`
		Route     string `json:"route"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("explain is not one JSON doc: %v: %s", err, body)
	}
	if rep.Composite != "@poi" || rep.Strategy != "greedy-rounds" || rep.Route != "engine" {
		t.Errorf("unexpected report: %+v", rep)
	}
}

// TestSearchBadQuery: parse and plan errors are typed 400s.
func TestSearchBadQuery(t *testing.T) {
	_, ts, _ := newTestServer(t, server.Config{})
	for _, q := range []string{
		`find similar to`,
		`find similar to region(0,0,1,1) under dist(nosuchattr)`,
		`find similar to region(0,0,1,1) under @nosuchcomposite`,
	} {
		resp, body := postJSON(t, ts.URL+"/v1/search", wire.Search{Q: q})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("q=%q: status %d, want 400: %s", q, resp.StatusCode, body)
			continue
		}
		var er wire.Response
		if err := json.Unmarshal(body, &er); err != nil || er.Code != wire.CodeBadRequest {
			t.Errorf("q=%q: error body %s", q, body)
		}
	}
}

// TestTimeoutPastNanosecondRange: a timeout_ms whose nanoseconds pass
// 2⁶³ is clamped to MaxTimeout like any other large value, on every front
// door — converted before the clamp it wrapped to a negative duration,
// and the request failed at once with code "deadline".
func TestTimeoutPastNanosecondRange(t *testing.T) {
	_, ts, _ := newTestServer(t, server.Config{})
	const huge = math.MaxInt64/int64(time.Millisecond) + 1 // 9 223 372 036 855
	orchard := dataset.SingaporeDistricts()[0].Rect
	region := &wire.Rect{MinX: orchard.MinX, MinY: orchard.MinY, MaxX: orchard.MaxX, MaxY: orchard.MaxY}
	for _, ms := range []int64{huge, math.MaxInt64} {
		q := wire.Query{Composite: "poi", Region: region, ExcludeRegion: true, TimeoutMS: ms}
		if resp, body := postJSON(t, ts.URL+"/v1/query", q); resp.StatusCode != http.StatusOK {
			t.Fatalf("/v1/query timeout_ms=%d: status %d, body %s", ms, resp.StatusCode, body)
		}
		resp, body := postJSON(t, ts.URL+"/v1/batch", wire.Batch{Queries: []wire.Query{q}})
		var batch wire.BatchResponse
		if err := json.Unmarshal(body, &batch); resp.StatusCode != http.StatusOK || err != nil ||
			len(batch.Responses) != 1 || batch.Responses[0].Error != "" {
			t.Fatalf("/v1/batch timeout_ms=%d: status %d, body %s", ms, resp.StatusCode, body)
		}
		rows, _, sresp := postSearch(t, ts.URL, wire.Search{
			Q:         `find similar to region(103.827,1.298,103.843,1.310) under @poi excluding example`,
			TimeoutMS: ms,
		})
		if sresp.StatusCode != http.StatusOK || len(rows) != 2 || !rows[1].Done || rows[1].Error != "" {
			t.Fatalf("/v1/search timeout_ms=%d: status %d, rows %+v", ms, sresp.StatusCode, rows)
		}
	}
}
