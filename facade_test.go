package asrs_test

import (
	"bytes"
	"math"
	"testing"

	"asrs"
	"asrs/internal/dataset"
)

func TestFacadeTopK(t *testing.T) {
	ds := dataset.Random(60, 60, 90)
	f, err := asrs.NewComposite(ds.Schema, asrs.AggSpec{Kind: asrs.Distribution, Attr: "cat"})
	if err != nil {
		t.Fatal(err)
	}
	q, _ := asrs.QueryFromTarget(f, []float64{3, 2, 1}, nil)
	resp, _ := asrs.Answer(ds, nil, asrs.QueryRequest{Query: q, A: 8, B: 8, TopK: 3})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	regions, results := resp.Regions, resp.Results
	if len(regions) != 3 {
		t.Fatalf("regions = %d", len(regions))
	}
	for i := 1; i < len(results); i++ {
		if results[i].Dist < results[i-1].Dist-1e-9 {
			t.Fatal("top-k not ordered")
		}
	}
	for i := 0; i < len(regions); i++ {
		for j := i + 1; j < len(regions); j++ {
			if regions[i].IntersectsOpen(regions[j]) {
				t.Fatal("top-k regions overlap")
			}
		}
	}
}

func TestFacadePersistence(t *testing.T) {
	ds := dataset.Random(200, 60, 91)
	var buf bytes.Buffer
	if err := asrs.WriteDatasetCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	loaded, err := asrs.ReadDatasetCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Objects) != 200 {
		t.Fatalf("loaded %d objects", len(loaded.Objects))
	}

	// The reloaded dataset answers as the original, through an index of
	// its own.
	answer := func(ds *asrs.Dataset) asrs.Result {
		f, _ := asrs.NewComposite(ds.Schema,
			asrs.AggSpec{Kind: asrs.Distribution, Attr: "cat"},
			asrs.AggSpec{Kind: asrs.Sum, Attr: "val"},
		)
		idx, err := asrs.NewIndex(ds, f, 16, 16)
		if err != nil {
			t.Fatal(err)
		}
		q, _ := asrs.QueryFromTarget(f, []float64{2, 2, 2, 10}, nil)
		_, r, _, err := asrs.SearchWithIndex(idx, ds, 7, 7, q, asrs.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if r1, r2 := answer(ds), answer(loaded); math.Float64bits(r1.Dist) != math.Float64bits(r2.Dist) || r1.Point != r2.Point {
		t.Fatalf("reloaded dataset answers differently: %g@%v vs %g@%v", r1.Dist, r1.Point, r2.Dist, r2.Point)
	}
}

func TestFacadeCountAggregator(t *testing.T) {
	ds := dataset.Random(40, 40, 92)
	f, err := asrs.NewComposite(ds.Schema, asrs.AggSpec{Kind: asrs.Count})
	if err != nil {
		t.Fatal(err)
	}
	// MER: the region enclosing the most objects, expressed as ASRS with
	// fC and a huge target.
	q, _ := asrs.QueryFromTarget(f, []float64{1e9}, nil)
	_, res, _, err := asrs.Search(ds, 10, 10, q, asrs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]asrs.MaxRSPoint, len(ds.Objects))
	for i := range ds.Objects {
		pts[i] = asrs.MaxRSPoint{Loc: ds.Objects[i].Loc, Weight: 1}
	}
	oe, err := asrs.MaxRSBaseline(pts, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rep[0] != oe.Weight {
		t.Fatalf("fC MER %g != OE %g", res.Rep[0], oe.Weight)
	}
}
