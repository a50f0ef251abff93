package dssearch_test

import (
	"math/rand"
	"testing"

	"asrs/internal/dataset"
	"asrs/internal/dssearch"
)

// TestStatsAccounting: the work counters are internally consistent.
func TestStatsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(120))
	ds := dataset.Random(300, 60, 121)
	q := randomQuery(t, ds, rng)
	s, err := dssearch.NewShapeSearcher(t, ds, 8, 8, q, dssearch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Solve()
	st := s.Stats
	if st.PrunedCells > st.DirtyCells {
		t.Fatalf("pruned %d > dirty %d", st.PrunedCells, st.DirtyCells)
	}
	if st.Splits > st.Discretizations {
		t.Fatalf("splits %d > discretizations %d", st.Splits, st.Discretizations)
	}
	if st.MaxHeapSize > st.HeapPushes+1 {
		t.Fatalf("heap size %d > pushes %d", st.MaxHeapSize, st.HeapPushes)
	}
	if st.Discretizations > 0 && st.CleanCells+st.DirtyCells == 0 {
		t.Fatal("discretized but saw no cells")
	}
}

// TestDefaultGranularityApplied: zero options get the paper's 30×30.
func TestDefaultGranularityApplied(t *testing.T) {
	ds := dataset.Random(10, 20, 122)
	q := randomQuery(t, ds, rand.New(rand.NewSource(123)))
	s, err := dssearch.NewShapeSearcher(t, ds, 4, 4, q, dssearch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Solve()
	// A 30×30 grid over ≥1 discretization touches ≥900 cells, unless the
	// whole instance was resolved by the small-space sweep cutoff.
	if s.Stats.Discretizations > 0 && s.Stats.CleanCells+s.Stats.DirtyCells < 900 {
		t.Fatalf("default grid not applied? cells=%d", s.Stats.CleanCells+s.Stats.DirtyCells)
	}
}
