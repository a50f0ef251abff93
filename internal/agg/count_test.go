package agg_test

import (
	"math"
	"math/rand"
	"testing"

	"asrs/internal/agg"
	"asrs/internal/asp"
	"asrs/internal/attr"
	"asrs/internal/dataset"
	"asrs/internal/dssearch"
	"asrs/internal/sweep"
)

func TestCountAggregator(t *testing.T) {
	ds := dataset.Random(50, 40, 60)
	catIdx := ds.Schema.Index("cat")

	// fC with no attribute counts everything; with a selector it counts
	// the selection.
	fAll := agg.MustNew(ds.Schema, agg.Spec{Kind: agg.Count})
	fA := agg.MustNew(ds.Schema, agg.Spec{Kind: agg.Count, Select: attr.SelectCategory(catIdx, 0)})
	region := agg.OpenRect{MinX: -1, MinY: -1, MaxX: 41, MaxY: 41}

	if got := fAll.Representation(ds, region); got[0] != 50 {
		t.Fatalf("fC(all) = %v, want 50", got)
	}
	wantA := 0.0
	for i := range ds.Objects {
		if ds.Objects[i].Values[catIdx].Cat == 0 {
			wantA++
		}
	}
	if got := fA.Representation(ds, region); got[0] != wantA {
		t.Fatalf("fC(cat=a) = %v, want %g", got, wantA)
	}
}

// TestCountMatchesDistributionSum: fC(all) equals the sum of fD's
// dimensions on any region.
func TestCountMatchesDistributionSum(t *testing.T) {
	ds := dataset.Random(80, 50, 61)
	fc := agg.MustNew(ds.Schema, agg.Spec{Kind: agg.Count})
	fd := agg.MustNew(ds.Schema, agg.Spec{Kind: agg.Distribution, Attr: "cat"})
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 100; trial++ {
		x, y := rng.Float64()*50, rng.Float64()*50
		r := agg.OpenRect{MinX: x, MinY: y, MaxX: x + 10, MaxY: y + 10}
		c := fc.Representation(ds, r)[0]
		d := fd.Representation(ds, r)
		if c != d[0]+d[1]+d[2] {
			t.Fatalf("fC %g != ΣfD %v", c, d)
		}
	}
}

// TestCountEndToEnd: DS-Search with fC (the MER special case: find the
// region with exactly/nearly target count) matches the sweep.
func TestCountEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 20; trial++ {
		ds := dataset.Random(1+rng.Intn(50), 50, rng.Int63())
		f := agg.MustNew(ds.Schema,
			agg.Spec{Kind: agg.Count},
			agg.Spec{Kind: agg.Count, Select: attr.SelectCategory(ds.Schema.Index("cat"), 1)},
		)
		q := asp.Query{F: f, Target: []float64{float64(rng.Intn(10)), float64(rng.Intn(5))}}
		rects, _ := asp.Reduce(ds, 7, 7, asp.AnchorTR)
		sw, _ := sweep.New(rects, q)
		want := sw.Solve()
		pl, err := dssearch.Compile(ds, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		s, err := dssearch.NewRegionSearcher(pl, 7, 7, dssearch.Options{NCol: 10, NRow: 10})
		if err != nil {
			t.Fatal(err)
		}
		got := s.Solve()
		if math.Abs(got.Dist-want.Dist) > 1e-9 {
			t.Fatalf("trial %d: fC end-to-end: %g vs %g", trial, got.Dist, want.Dist)
		}
		if n := s.Stats.SelfCheckMisses; n != 0 {
			t.Fatalf("trial %d: %d answers failed their self-check", trial, n)
		}
	}
}

func TestCountIsIntegerDim(t *testing.T) {
	ds := dataset.Random(5, 10, 64)
	f := agg.MustNew(ds.Schema, agg.Spec{Kind: agg.Count})
	if ints := f.IntegerDims(); !ints[0] {
		t.Fatal("fC dim should be integer")
	}
}

func TestCountUnknownAttrStillRejected(t *testing.T) {
	ds := dataset.Random(5, 10, 65)
	if _, err := agg.New(ds.Schema, agg.Spec{Kind: agg.Count, Attr: "nope"}); err == nil {
		t.Fatal("fC with unknown non-empty attribute accepted")
	}
}
