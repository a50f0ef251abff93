package asrs_test

import (
	"math"
	"testing"

	"asrs"
	"asrs/internal/dataset"
)

// exampleDataset builds the Fig 1 neighborhood: apartments with prices,
// plus amenities, in two look-alike districts and one distractor.
func exampleDataset(t *testing.T) *asrs.Dataset {
	t.Helper()
	schema := asrs.MustSchema(
		asrs.Attribute{Name: "category", Kind: asrs.Categorical,
			Domain: []string{"Apartment", "Supermarket", "Restaurant", "Bus stop"}},
		asrs.Attribute{Name: "price", Kind: asrs.Numeric},
	)
	obj := func(x, y float64, cat int, price float64) asrs.Object {
		return asrs.Object{Loc: asrs.Point{X: x, Y: y},
			Values: []asrs.Value{{Cat: cat}, {Num: price}}}
	}
	// District A (the query): 2 apartments (avg 1.75), 1 of each amenity.
	// District B (the wanted answer): near-identical profile.
	// District C: apartments only, expensive.
	objects := []asrs.Object{
		obj(1.0, 1.0, 0, 2.0), obj(1.6, 1.4, 0, 1.5),
		obj(1.2, 1.8, 1, 0), obj(1.8, 1.2, 2, 0), obj(1.4, 1.6, 3, 0),

		obj(11.0, 1.0, 0, 1.9), obj(11.6, 1.4, 0, 1.6),
		obj(11.2, 1.8, 1, 0), obj(11.8, 1.2, 2, 0), obj(11.4, 1.6, 3, 0),

		obj(21.0, 1.0, 0, 9.0), obj(21.5, 1.5, 0, 8.5), obj(21.2, 1.2, 0, 9.5),
	}
	return &asrs.Dataset{Schema: schema, Objects: objects}
}

func TestQueryByExampleEndToEnd(t *testing.T) {
	ds := exampleDataset(t)
	aptSel := asrs.SelectCategory(0, 0)
	f, err := asrs.NewComposite(ds.Schema,
		asrs.AggSpec{Kind: asrs.Distribution, Attr: "category"},
		asrs.AggSpec{Kind: asrs.Average, Attr: "price", Select: aptSel},
	)
	if err != nil {
		t.Fatal(err)
	}
	rq := asrs.Rect{MinX: 0.5, MinY: 0.5, MaxX: 2.5, MaxY: 2.5}
	q, err := asrs.QueryFromRegion(ds, f, nil, rq)
	if err != nil {
		t.Fatal(err)
	}
	wantTarget := []float64{2, 1, 1, 1, 1.75}
	for i := range wantTarget {
		if math.Abs(q.Target[i]-wantTarget[i]) > 1e-9 {
			t.Fatalf("target = %v, want %v", q.Target, wantTarget)
		}
	}

	// Exclude the query's own district by searching only the exact
	// solution: district B should win with a near-zero distance.
	region, res, stats, err := asrs.Search(ds, 2, 2, q, asrs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist > 0.26 { // district B differs only by avg price 1.75 vs 1.75±0.25
		t.Fatalf("best distance %g too large; region %v", res.Dist, region)
	}
	// The answer must be one of the two look-alike districts, not C.
	cx := region.Center().X
	if !(cx < 5 || (cx > 8 && cx < 15)) {
		t.Fatalf("answer region %v is not a look-alike district", region)
	}
	if stats.Discretizations == 0 && stats.MiniSweeps == 0 {
		t.Fatal("no work recorded")
	}
}

func TestFacadeConsistency(t *testing.T) {
	ds := dataset.Random(80, 60, 21)
	f, err := asrs.NewComposite(ds.Schema,
		asrs.AggSpec{Kind: asrs.Distribution, Attr: "cat"},
		asrs.AggSpec{Kind: asrs.Sum, Attr: "val"},
	)
	if err != nil {
		t.Fatal(err)
	}
	q, err := asrs.QueryFromTarget(f, []float64{3, 2, 1, 5}, asrs.UnitWeights(4))
	if err != nil {
		t.Fatal(err)
	}
	a, b := 8.0, 7.0

	_, exact, _, err := asrs.Search(ds, a, b, q, asrs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	baseResp := asrs.SearchBaseline(ds, asrs.QueryRequest{Query: q, A: a, B: b})
	if baseResp.Err != nil {
		t.Fatal(baseResp.Err)
	}
	_, base := baseResp.Best()
	idx, err := asrs.NewIndex(ds, f, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	_, gids, _, err := asrs.SearchWithIndex(idx, ds, a, b, q, asrs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact.Dist-base.Dist) > 1e-9 || math.Abs(gids.Dist-base.Dist) > 1e-9 {
		t.Fatalf("algorithms disagree: DS %g, Base %g, GI-DS %g", exact.Dist, base.Dist, gids.Dist)
	}

	_, approx, _, err := asrs.Search(ds, a, b, q, asrs.Options{Delta: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if approx.Dist > 1.2*base.Dist+1e-9 {
		t.Fatalf("approx %g violates guarantee vs %g", approx.Dist, base.Dist)
	}
}

func TestFacadeMaxRS(t *testing.T) {
	pts := []asrs.MaxRSPoint{
		{Loc: asrs.Point{X: 1, Y: 1}, Weight: 1},
		{Loc: asrs.Point{X: 1.2, Y: 1.1}, Weight: 1},
		{Loc: asrs.Point{X: 9, Y: 9}, Weight: 1},
	}
	ds, _, err := asrs.MaxRS(pts, 1, 1, asrs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	oe, err := asrs.MaxRSBaseline(pts, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Weight != 2 || oe.Weight != 2 {
		t.Fatalf("MaxRS weights: DS %g, OE %g, want 2", ds.Weight, oe.Weight)
	}
}

func TestRepresentAndDistance(t *testing.T) {
	ds := exampleDataset(t)
	f, _ := asrs.NewComposite(ds.Schema, asrs.AggSpec{Kind: asrs.Distribution, Attr: "category"})
	rep := asrs.Represent(ds, f, asrs.Rect{MinX: 0, MinY: 0, MaxX: 5, MaxY: 5})
	if rep[0] != 2 || rep[1] != 1 || rep[2] != 1 || rep[3] != 1 {
		t.Fatalf("rep = %v", rep)
	}
	if d := asrs.Distance(asrs.L1, rep, []float64{0, 0, 0, 0}, nil); d != 5 {
		t.Fatalf("distance = %g", d)
	}
}
