package asrs_test

import (
	"math"
	"testing"

	"asrs"
	"asrs/internal/dataset"
)

// caseStudy is Figs 14–15's request on the Singapore corpus: Orchard's
// category distribution as the target, Orchard's extent, and Orchard
// itself excluded (it would otherwise be its own zero-distance answer).
func caseStudy(tb testing.TB) (*asrs.Dataset, asrs.QueryRequest) {
	tb.Helper()
	ds := dataset.SingaporePOI(42)
	f, err := asrs.NewComposite(ds.Schema, asrs.AggSpec{Kind: asrs.Distribution, Attr: "category"})
	if err != nil {
		tb.Fatal(err)
	}
	orchard := dataset.SingaporeDistricts()[0].Rect
	q, err := asrs.QueryFromRegion(ds, f, nil, orchard)
	if err != nil {
		tb.Fatal(err)
	}
	return ds, asrs.QueryRequest{Query: q, A: orchard.Width(), B: orchard.Height(), Exclude: []asrs.Rect{orchard}}
}

// district names the case-study district holding most of region, or "".
func district(region asrs.Rect) string {
	for _, d := range dataset.SingaporeDistricts() {
		if in := region.Intersect(d.Rect); in.IsValid() && in.Area() > 0.5*region.Area() {
			return d.Name
		}
	}
	return ""
}

// TestCaseStudy holds Figs 14–15 at seed 42: Orchard, its own region
// excluded, finds a region mostly inside Marina Bay at distance 62 —
// closer than Bugis, the instructive non-answer, at 268.
func TestCaseStudy(t *testing.T) {
	ds, req := caseStudy(t)
	resp, _ := asrs.Answer(ds, nil, req)
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	region, res := resp.Best()
	if math.Float64bits(res.Dist) != math.Float64bits(62) {
		t.Fatalf("answer %v at distance %v, want 62", region, res.Dist)
	}
	if d := district(region); d != "Marina Bay" {
		t.Fatalf("answer %v is mostly in %q, want Marina Bay", region, d)
	}
	bugis := req.Query.Distance(asrs.Represent(ds, req.Query.F, dataset.SingaporeDistricts()[2].Rect))
	if res.Dist >= bugis {
		t.Fatalf("answer at distance %v is no closer than Bugis at %v", res.Dist, bugis)
	}
}
