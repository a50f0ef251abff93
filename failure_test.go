// Failure-injection suite: malformed composites, degenerate datasets, and
// inconsistent queries must produce errors (or correct degenerate
// answers), never panics or silent wrong results.
package asrs_test

import (
	"math"
	"testing"

	"asrs"
	"asrs/internal/dataset"
)

func validSchema() *asrs.Schema {
	return asrs.MustSchema(
		asrs.Attribute{Name: "cat", Kind: asrs.Categorical, Domain: []string{"a", "b"}},
		asrs.Attribute{Name: "val", Kind: asrs.Numeric},
	)
}

func TestMalformedComposites(t *testing.T) {
	s := validSchema()
	cases := []struct {
		name  string
		specs []asrs.AggSpec
	}{
		{"empty", nil},
		{"unknown attr", []asrs.AggSpec{{Kind: asrs.Distribution, Attr: "ghost"}}},
		{"fD on numeric", []asrs.AggSpec{{Kind: asrs.Distribution, Attr: "val"}}},
		{"fA on categorical", []asrs.AggSpec{{Kind: asrs.Average, Attr: "cat"}}},
		{"fS on categorical", []asrs.AggSpec{{Kind: asrs.Sum, Attr: "cat"}}},
		{"mixed bad", []asrs.AggSpec{{Kind: asrs.Distribution, Attr: "cat"}, {Kind: asrs.Sum, Attr: "cat"}}},
	}
	for _, c := range cases {
		if _, err := asrs.NewComposite(s, c.specs...); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestDegenerateDatasets(t *testing.T) {
	s := validSchema()
	f, err := asrs.NewComposite(s, asrs.AggSpec{Kind: asrs.Distribution, Attr: "cat"})
	if err != nil {
		t.Fatal(err)
	}
	q, err := asrs.QueryFromTarget(f, []float64{0, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("empty dataset", func(t *testing.T) {
		ds := &asrs.Dataset{Schema: s}
		region, res, _, err := asrs.Search(ds, 1, 1, q, asrs.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Dist != 0 {
			t.Fatalf("empty dataset with zero target: dist %g", res.Dist)
		}
		if region.Width() != 1 || region.Height() != 1 {
			t.Fatalf("region size %v", region)
		}
	})

	t.Run("single object", func(t *testing.T) {
		ds := &asrs.Dataset{Schema: s, Objects: []asrs.Object{
			{Loc: asrs.Point{X: 5, Y: 5}, Values: []asrs.Value{{Cat: 1}, {Num: 2}}},
		}}
		q2, _ := asrs.QueryFromTarget(f, []float64{0, 1}, nil)
		_, res, _, err := asrs.Search(ds, 2, 2, q2, asrs.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Dist != 0 {
			t.Fatalf("should find the single b-object exactly, dist %g", res.Dist)
		}
	})

	t.Run("all coincident", func(t *testing.T) {
		objs := make([]asrs.Object, 9)
		for i := range objs {
			objs[i] = asrs.Object{Loc: asrs.Point{X: 1, Y: 1}, Values: []asrs.Value{{Cat: 0}, {Num: 1}}}
		}
		ds := &asrs.Dataset{Schema: s, Objects: objs}
		q3, _ := asrs.QueryFromTarget(f, []float64{9, 0}, nil)
		_, res, _, err := asrs.Search(ds, 3, 3, q3, asrs.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Dist != 0 {
			t.Fatalf("coincident cluster should match target exactly, dist %g", res.Dist)
		}
	})

	t.Run("collinear", func(t *testing.T) {
		objs := make([]asrs.Object, 12)
		for i := range objs {
			objs[i] = asrs.Object{Loc: asrs.Point{X: float64(i), Y: 7}, Values: []asrs.Value{{Cat: 0}, {Num: 1}}}
		}
		ds := &asrs.Dataset{Schema: s, Objects: objs}
		q4, _ := asrs.QueryFromTarget(f, []float64{3, 0}, nil)
		_, res, _, err := asrs.Search(ds, 2.5, 2.5, q4, asrs.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Dist != 0 {
			t.Fatalf("a 2.5-wide window over unit-spaced collinear points holds exactly 3... got dist %g (rep %v)", res.Dist, res.Rep)
		}
	})
}

func TestInconsistentQueries(t *testing.T) {
	s := validSchema()
	f, _ := asrs.NewComposite(s, asrs.AggSpec{Kind: asrs.Distribution, Attr: "cat"})
	ds := &asrs.Dataset{Schema: s, Objects: []asrs.Object{
		{Loc: asrs.Point{X: 1, Y: 1}, Values: []asrs.Value{{Cat: 0}, {Num: 0}}},
	}}

	if _, err := asrs.QueryFromTarget(f, []float64{1}, nil); err == nil {
		t.Error("short target accepted")
	}
	if _, err := asrs.QueryFromTarget(f, []float64{1, 2}, []float64{1}); err == nil {
		t.Error("short weights accepted")
	}
	q, _ := asrs.QueryFromTarget(f, []float64{1, 1}, nil)
	if _, _, _, err := asrs.Search(ds, 0, 5, q, asrs.Options{}); err == nil {
		t.Error("zero-width query accepted")
	}
	if _, _, _, err := asrs.Search(ds, 5, -1, q, asrs.Options{}); err == nil {
		t.Error("negative-height query accepted")
	}
	if _, _, _, err := asrs.Search(ds, 1, 1, q, asrs.Options{Delta: -0.5}); err == nil {
		t.Error("negative delta accepted")
	}
}

func TestQueryRegionOutsideData(t *testing.T) {
	ds := dataset.Random(40, 50, 200)
	f, _ := asrs.NewComposite(ds.Schema, asrs.AggSpec{Kind: asrs.Distribution, Attr: "cat"})
	// An example region far outside the data has the all-zero
	// representation; the best answer is any empty region (distance 0).
	q, err := asrs.QueryFromRegion(ds, f, nil, asrs.Rect{MinX: 900, MinY: 900, MaxX: 910, MaxY: 910})
	if err != nil {
		t.Fatal(err)
	}
	_, res, _, err := asrs.Search(ds, 10, 10, q, asrs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist != 0 {
		t.Fatalf("empty-region query should be satisfiable with distance 0, got %g", res.Dist)
	}
}

// TestInfiniteExtentRefused: an answer extent that is not finite is
// refused like one that is not positive, by the one-shot search, the
// baseline oracle and an engine with its index and pyramid. An infinite
// width used to answer the region [-Inf,NaN]x[19.5,21.5] at distance 7.5.
func TestInfiniteExtentRefused(t *testing.T) {
	ds, f := demoDataset()
	q, err := asrs.QueryFromTarget(f, []float64{3, 0, 4.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := asrs.NewEngine(ds, asrs.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	inf := math.Inf(1)
	for _, ab := range [][2]float64{{inf, 2}, {2, inf}, {math.NaN(), 2}} {
		a, b := ab[0], ab[1]
		if region, res, _, err := asrs.Search(ds, a, b, q, asrs.Options{}); err == nil {
			t.Errorf("%g x %g: Search answered %v at distance %v", a, b, region, res.Dist)
		}
		req := asrs.QueryRequest{Query: q, A: a, B: b}
		if resp := asrs.SearchBaseline(ds, req); resp.Err == nil {
			t.Errorf("%g x %g: SearchBaseline answered %+v", a, b, resp)
		}
		if resp := eng.Query(req); resp.Err == nil {
			t.Errorf("%g x %g: the engine answered %+v", a, b, resp)
		}
	}
}
