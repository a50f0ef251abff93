package dssearch

import (
	"math/rand"
	"testing"

	"asrs/internal/asp"
	"asrs/internal/geom"
)

// TestSearchReadsItsPlan: a request's searcher reads the plan it was
// bound to and nothing compiled of its own — pass 2's bound and the clean
// cells' and centre probes' scores (Searcher.plan), and its sweep
// solver's strip bound and interval scores (the solver is bound to the
// plan's agg.Plan) — round after round, with the pyramid given or built
// one-shot. The plan reads the pyramid given when it matches, and a
// released slab's solver is detached from the plan.
func TestSearchReadsItsPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	ds, f := pyramidDataset(t, rng, 600, func() float64 { return float64(rng.Intn(9)) * 0.5 }, true)
	p, err := BuildPyramid(ds, f)
	if err != nil {
		t.Fatal(err)
	}
	target := make([]float64, f.Dims())
	target[0], target[1] = 20, 2
	q := asp.Query{F: f, Target: target}
	for _, given := range []*Pyramid{p, nil} {
		pl, err := Compile(ds, q, given)
		if err != nil {
			t.Fatal(err)
		}
		if read := pl.Pyramid(); given != nil && read != given || read == nil || !read.Matches(ds, f) {
			t.Fatalf("pyramid given %v: the plan reads %p", given != nil, read)
		}
		r, err := Open(pl, 6, 5, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var excl []geom.Rect
		for round := 0; round < 3; round++ {
			region, _, err := r.Best(excl)
			if err != nil {
				t.Fatal(err)
			}
			s := r.s
			if st := s.Stats; st.DirtyCells == 0 || st.MiniSweeps == 0 {
				t.Fatalf("round %d bounded %d dirty cells and ran %d mini-sweeps: the plan's readers were not exercised", round, st.DirtyCells, st.MiniSweeps)
			}
			if r.Plan() != pl || s.plan != pl || s.sw.Plan() != &pl.c {
				t.Fatalf("pyramid given %v, round %d: the searcher reads %p and its solver %p, not the request's plan %p", given != nil, round, s.plan, s.sw.Plan(), pl)
			}
			excl = append(excl, region)
		}
		sw := r.s.sw
		r.Close()
		if sw.Plan() != nil {
			t.Fatal("a released slab's solver still reads the request's plan")
		}
		pl.Release()
		if pl.Pyramid() != nil {
			t.Fatal("a released plan still holds its pyramid")
		}
	}
}
