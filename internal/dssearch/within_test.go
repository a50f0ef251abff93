package dssearch_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"asrs/internal/agg"
	"asrs/internal/asp"
	"asrs/internal/dataset"
	"asrs/internal/dssearch"
	"asrs/internal/geom"
)

// TestSolveWithinContainsAnswer: the answer region must be contained in
// the extent, and no probe anchor inside the extent may beat it.
func TestSolveWithinContainsAnswer(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 20; trial++ {
		ds := dataset.Random(40, 50, rng.Int63())
		f := agg.MustNew(ds.Schema,
			agg.Spec{Kind: agg.Distribution, Attr: "cat"},
			agg.Spec{Kind: agg.Sum, Attr: "val"},
		)
		a, b := 8.0, 6.0
		within := geom.Rect{
			MinX: rng.Float64() * 20, MinY: rng.Float64() * 20,
		}
		within.MaxX = within.MinX + a + rng.Float64()*30
		within.MaxY = within.MinY + b + rng.Float64()*30
		q := asp.Query{F: f, Target: make([]float64, f.Dims())}
		for i := range q.Target {
			q.Target[i] = rng.Float64() * 4
		}

		region, res, _, err := dssearch.SolveASRS(ds, a, b, q, &within, nil, dssearch.Options{NCol: 10, NRow: 10})
		if err != nil {
			t.Fatal(err)
		}
		if !within.ContainsRect(region) {
			t.Fatalf("trial %d: answer %+v escapes extent %+v", trial, region, within)
		}
		// No probe anchor inside the window may beat the answer.
		rects, _ := asp.Reduce(ds, a, b, asp.AnchorTR)
		win := dssearch.AnchorWindow(within, a, b)
		for probe := 0; probe < 300; probe++ {
			p := geom.Point{
				X: win.MinX + rng.Float64()*(win.MaxX-win.MinX),
				Y: win.MinY + rng.Float64()*(win.MaxY-win.MinY),
			}
			rep := asp.PointRepresentation(rects, f, p)
			if d := q.Distance(rep); d < res.Dist-1e-9 {
				t.Fatalf("trial %d: in-window probe %v beats answer: %g < %g", trial, p, d, res.Dist)
			}
		}
	}
}

// TestSolveWithinTypedErrors: an extent smaller than a×b yields
// ErrExtentTooSmall; exclusions covering the whole window yield
// ErrNoFeasibleRegion.
func TestSolveWithinTypedErrors(t *testing.T) {
	ds := dataset.Random(20, 40, 5)
	f := agg.MustNew(ds.Schema, agg.Spec{Kind: agg.Distribution, Attr: "cat"})
	q := asp.Query{F: f, Target: make([]float64, f.Dims())}
	opt := dssearch.Options{NCol: 8, NRow: 8}

	small := geom.Rect{MinX: 0, MinY: 0, MaxX: 5, MaxY: 5}
	if _, _, _, err := dssearch.SolveASRS(ds, 8, 8, q, &small, nil, opt); !errors.Is(err, dssearch.ErrExtentTooSmall) {
		t.Fatalf("small extent: err = %v, want ErrExtentTooSmall", err)
	}

	within := geom.Rect{MinX: 0, MinY: 0, MaxX: 20, MaxY: 20}
	blocker := geom.Rect{MinX: -10, MinY: -10, MaxX: 40, MaxY: 40}
	if _, _, _, err := dssearch.SolveASRS(ds, 8, 8, q, &within, []geom.Rect{blocker}, opt); !errors.Is(err, dssearch.ErrNoFeasibleRegion) {
		t.Fatalf("blocked extent: err = %v, want ErrNoFeasibleRegion", err)
	}
}

// TestSolveWithinExactFit: an extent exactly a×b admits a single anchor;
// the answer must be that region with its exact representation.
func TestSolveWithinExactFit(t *testing.T) {
	ds := dataset.Random(25, 40, 9)
	f := agg.MustNew(ds.Schema, agg.Spec{Kind: agg.Distribution, Attr: "cat"})
	q := asp.Query{F: f, Target: make([]float64, f.Dims())}
	a, b := 7.0, 5.0
	within := geom.Rect{MinX: 11, MinY: 13, MaxX: 11 + a, MaxY: 13 + b}
	region, res, _, err := dssearch.SolveASRS(ds, a, b, q, &within, nil, dssearch.Options{NCol: 8, NRow: 8})
	if err != nil {
		t.Fatal(err)
	}
	if region != within {
		t.Fatalf("exact-fit answer = %+v, want the extent %+v", region, within)
	}
	rects, _ := asp.Reduce(ds, a, b, asp.AnchorTR)
	want := asp.PointRepresentation(rects, f, geom.Point{X: within.MinX, Y: within.MinY})
	if q.Distance(want) != res.Dist {
		t.Fatalf("exact-fit dist = %g, want %g", res.Dist, q.Distance(want))
	}
}

// TestSolveWithinEmptyCorpus: with no objects the best in-extent region
// is an empty-coverage region; the distance must be the empty
// representation's.
func TestSolveWithinEmptyCorpus(t *testing.T) {
	ds := dataset.Random(0, 40, 11)
	f := agg.MustNew(ds.Schema, agg.Spec{Kind: agg.Distribution, Attr: "cat"})
	q := asp.Query{F: f, Target: []float64{1, 2, 3}}
	within := geom.Rect{MinX: 0, MinY: 0, MaxX: 30, MaxY: 30}
	region, res, _, err := dssearch.SolveASRS(ds, 8, 8, q, &within, nil, dssearch.Options{NCol: 8, NRow: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !within.ContainsRect(region) {
		t.Fatalf("empty-corpus answer %+v escapes extent %+v", region, within)
	}
	rep := make([]float64, f.Dims())
	if want := q.Distance(rep); res.Dist != want {
		t.Fatalf("empty-corpus dist = %g, want empty representation distance %g", res.Dist, want)
	}
}

// TestSolveWithinCorpusIndependence is the contained-routing exactness
// claim in miniature: two corpora that agree on the objects whose
// anchor rectangles can reach the window produce Float64bits-identical
// answers — the foundation of the shard router's contained fast path.
func TestSolveWithinCorpusIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		full := dataset.Random(60, 80, rng.Int63())
		f := agg.MustNew(full.Schema,
			agg.Spec{Kind: agg.Distribution, Attr: "cat"},
			agg.Spec{Kind: agg.Sum, Attr: "val"},
		)
		a, b := 9.0, 9.0
		within := geom.Rect{MinX: 20, MinY: 10, MaxX: 50, MaxY: 45}
		// Subset: only objects whose anchor rect can intersect the
		// window (x in (within.MinX, within.MaxX), conservatively wider).
		subset := *full
		subset.Objects = nil
		for _, o := range full.Objects {
			if o.Loc.X > within.MinX-1e-9 && o.Loc.X < within.MaxX+1e-9 {
				subset.Objects = append(subset.Objects, o)
			}
		}
		q := asp.Query{F: f, Target: make([]float64, f.Dims())}
		for i := range q.Target {
			q.Target[i] = rng.Float64() * 3
		}
		opt := dssearch.Options{NCol: 10, NRow: 10}
		r1, res1, _, err1 := dssearch.SolveASRS(full, a, b, q, &within, nil, opt)
		r2, res2, _, err2 := dssearch.SolveASRS(&subset, a, b, q, &within, nil, opt)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if r1 != r2 || math.Float64bits(res1.Dist) != math.Float64bits(res2.Dist) ||
			res1.Point != res2.Point {
			t.Fatalf("trial %d: corpus-dependent window answer: %+v/%v vs %+v/%v", trial, r1, res1.Dist, r2, res2.Dist)
		}
		for i := range res1.Rep {
			if math.Float64bits(res1.Rep[i]) != math.Float64bits(res2.Rep[i]) {
				t.Fatalf("trial %d: rep[%d] differs", trial, i)
			}
		}
	}
}
