package dssearch_test

import (
	"math"
	"math/rand"
	"testing"

	"asrs/internal/agg"
	"asrs/internal/asp"
	"asrs/internal/dataset"
	"asrs/internal/dssearch"
	"asrs/internal/geom"
)

// TestSearchExcludingAvoidsRegion: query by example must not return the
// example itself, and the answer must be optimal among non-overlapping
// candidates.
func TestSearchExcludingAvoidsRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 20; trial++ {
		ds := dataset.Random(40, 50, rng.Int63())
		f := agg.MustNew(ds.Schema,
			agg.Spec{Kind: agg.Distribution, Attr: "cat"},
			agg.Spec{Kind: agg.Sum, Attr: "val"},
		)
		a, b := 8.0, 8.0
		// The example region is wherever the first object sits.
		center := ds.Objects[0].Loc
		rq := geom.Rect{MinX: center.X - a/2, MinY: center.Y - b/2, MaxX: center.X + a/2, MaxY: center.Y + b/2}
		q := asp.Query{F: f, Target: f.Representation(ds, agg.OpenRect{MinX: rq.MinX, MinY: rq.MinY, MaxX: rq.MaxX, MaxY: rq.MaxY})}

		region, res, _, err := dssearch.SolveASRS(ds, a, b, q, nil, []geom.Rect{rq}, dssearch.Options{NCol: 10, NRow: 10})
		if err != nil {
			t.Fatal(err)
		}
		if region.IntersectsOpen(rq) {
			t.Fatalf("trial %d: answer %v overlaps excluded %v", trial, region, rq)
		}
		// No random non-overlapping probe may beat the answer.
		rects, _ := asp.Reduce(ds, a, b, asp.AnchorTR)
		for probe := 0; probe < 300; probe++ {
			p := geom.Point{X: rng.Float64()*70 - 10, Y: rng.Float64()*70 - 10}
			cand := asp.AnchorTR.RegionFor(p, a, b)
			if cand.IntersectsOpen(rq) {
				continue
			}
			rep := asp.PointRepresentation(rects, f, p)
			if d := q.Distance(rep); d < res.Dist-1e-9 {
				t.Fatalf("trial %d: probe %v beats answer: %g < %g", trial, p, d, res.Dist)
			}
		}
	}
}

// TestSearchExcludingDisjoint: excluding a region far from everything must
// reproduce the unconstrained optimum.
func TestSearchExcludingDisjoint(t *testing.T) {
	ds := dataset.Random(30, 40, 31)
	f := agg.MustNew(ds.Schema, agg.Spec{Kind: agg.Distribution, Attr: "cat"})
	q := asp.Query{F: f, Target: []float64{2, 2, 2}}
	a, b := 6.0, 6.0
	_, want, _, err := dssearch.SolveASRS(ds, a, b, q, nil, nil, dssearch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	far := geom.Rect{MinX: -500, MinY: -500, MaxX: -490, MaxY: -490}
	_, got, _, err := dssearch.SolveASRS(ds, a, b, q, nil, []geom.Rect{far}, dssearch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Dist-want.Dist) > 1e-9 {
		t.Fatalf("disjoint exclusion changed answer: %g vs %g", got.Dist, want.Dist)
	}
}
