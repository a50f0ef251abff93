package gridindex_test

import (
	"testing"

	"asrs/internal/dataset"
	"asrs/internal/dssearch"
	"asrs/internal/geom"
	"asrs/internal/gridindex"
)

// TestSessionReadsItsPlan: every round of a GI-DS session, top-1 or
// top-3, with the pyramid given or built one-shot, binds its searcher to
// the plan the session was opened with — the searcher bounds its dirty
// cells and scores its candidates by that plan and binds its sweep solver
// to it (dssearch's TestSearchReadsItsPlan) — and bounds the index's
// cells by that plan's bound (Session.Plan): nothing is compiled per
// round.
func TestSessionReadsItsPlan(t *testing.T) {
	ds := dataset.Tweet(3000, 42)
	ua, ub := dataset.QueryUnit(ds.Bounds())
	a, b := 16*ua, 16*ub
	q, err := dataset.F1(ds, a, b)
	if err != nil {
		t.Fatal(err)
	}
	pyr, err := dssearch.BuildPyramid(ds, q.F)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := gridindex.New(pyr, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, given := range []*dssearch.Pyramid{pyr, nil} {
		for _, k := range []int{1, 3} {
			pl := gridindex.Compile(t, ds, q, dssearch.Options{Pyramid: given})
			s := gridindex.Open(idx, pl, a, b, dssearch.Options{}, k)
			visits := 0
			s.VisitSearcher(func(searcher *dssearch.Searcher) {
				if visits++; searcher.Plan() != pl {
					t.Fatalf("pyramid given %v, top-%d: a round's searcher reads %p, not the session's plan %p", given != nil, k, searcher.Plan(), pl)
				}
			})
			var excl []geom.Rect
			for round := 0; round < k; round++ {
				res, st, err := s.Solve(excl)
				if err != nil {
					t.Fatal(err)
				}
				if st.Bounded == 0 && round == 0 {
					t.Fatalf("top-%d: the first round bounded no cell range", k)
				}
				excl = append(excl, geom.RectFromBL(res.Point, a, b))
			}
			if s.Plan() != pl || visits == 0 {
				t.Fatalf("pyramid given %v, top-%d: the session reads %p after %d cells searched, want %p", given != nil, k, s.Plan(), visits, pl)
			}
			s.Close()
		}
	}
}
