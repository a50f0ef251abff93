package asrs_test

import (
	"math"
	"testing"

	"asrs"
	"asrs/internal/dataset"
)

// TestF2OptimumOnClampedEdge keeps bench finding 1 on file (bench/README.md:
// on POISyn n = 5 000 under the paper's F2, 3 % of random queries got an
// answer from DS-Search or GI-DS worse than the O(n²) baseline's, e.g.
// 0.3988 for 0.2208, always by the same ≈ 10 185 visits).
//
// POISyn clamps locations to its bounds, so some twenty objects share
// y = 49.39 and their 45-unit rectangles all start at y = 48.265; the
// best region of these queries lies just above that line. The search
// found it, then — splitting down onto the line — reached spaces a few
// ulps tall, whose clean cells hold no representable point: their centres
// round onto y = 48.265 itself, where none of the twenty rectangles
// covers. Pass 1 installed such a centre with the cell interior's
// distance, the tie-break (smaller coordinates win) preferred it to the
// genuine point found earlier, and the final re-evaluation of the point
// reported what it really covers. Fixed in dssearch's cleanPass: a cell
// offers its centre only when the centre is strictly inside it.
//
// The baseline and both searches sum F2's channels as exact limbs, so the
// distances compare bit for bit.
func TestF2OptimumOnClampedEdge(t *testing.T) {
	ds := dataset.POISyn(5000, 42)
	f, err := asrs.NewComposite(ds.Schema,
		asrs.AggSpec{Kind: asrs.Sum, Attr: "visits"},
		asrs.AggSpec{Kind: asrs.Average, Attr: "rating"})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := asrs.NewIndex(ds, f, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	ua, ub := dataset.QueryUnit(ds.Bounds())
	a, b := 45*ua, 45*ub
	visits := ds.Schema.Index("visits")
	vmax := dataset.MaxWindowStat(ds, a, b, func(o *asrs.Object) float64 { return o.Values[visits].Num })
	// GI-DS answered 0.2856 for this one; the optimum is 0.1346.
	q, err := asrs.QueryFromTarget(f, []float64{61566.89825282747, 7.432003917865764}, []float64{1 / vmax, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	q.Norm = asrs.L2
	baseResp := asrs.SearchBaseline(ds, asrs.QueryRequest{Query: q, A: a, B: b})
	if baseResp.Err != nil {
		t.Fatal(baseResp.Err)
	}
	_, base := baseResp.Best()
	_, plain, _, err := asrs.Search(ds, a, b, q, asrs.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, gids, _, err := asrs.SearchWithIndex(idx, ds, a, b, q, asrs.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]float64{"DS-Search": plain.Dist, "GI-DS": gids.Dist} {
		if math.Float64bits(got) != math.Float64bits(base.Dist) {
			t.Errorf("%s answers %v, the baseline %v", name, got, base.Dist)
		}
	}
}
