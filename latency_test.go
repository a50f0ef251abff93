package asrs_test

import (
	"testing"

	"asrs"
	"asrs/internal/dataset"
)

// TestEngineLatencyStats: executed searches feed the latency histogram —
// one observation per search (TestFlightJoinByCounts holds that joiners
// add none) — and the percentile estimates come back ordered, positive
// and bounded by the histogram's range.
func TestEngineLatencyStats(t *testing.T) {
	ds := dataset.Tweet(3000, 11)
	bounds := ds.Bounds()
	a, b := bounds.Width()/50, bounds.Height()/50
	q, err := dataset.F1(ds, a, b)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := asrs.NewEngine(ds, asrs.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.LatencyCount != 0 || st.LatencyP50Ms != 0 {
		t.Fatalf("fresh engine has latency stats: %+v", st)
	}
	req := asrs.QueryRequest{Query: q, A: a, B: b}
	if resp := eng.Query(req); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	st := eng.Stats()
	if st.LatencyCount != 1 {
		t.Fatalf("LatencyCount = %d after one query", st.LatencyCount)
	}
	if st.LatencyP50Ms <= 0 {
		t.Fatalf("p50 = %v after a real search", st.LatencyP50Ms)
	}
	if !(st.LatencyP50Ms <= st.LatencyP95Ms && st.LatencyP95Ms <= st.LatencyP99Ms) {
		t.Fatalf("percentiles out of order: %+v", st)
	}
	if st.LatencyP99Ms > 1e6 {
		t.Fatalf("p99 out of histogram range: %v ms", st.LatencyP99Ms)
	}
}
