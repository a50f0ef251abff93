package asrs_test

import (
	"bytes"
	"math"
	"testing"

	"asrs"
	"asrs/internal/dataset"
)

// TestCSVRoundTripPreservesAnswers: serializing a corpus to CSV and
// loading it back must not change any search answer — the end-to-end
// guarantee behind cmd/asrsgen.
func TestCSVRoundTripPreservesAnswers(t *testing.T) {
	ds := dataset.SingaporePOI(42)
	var buf bytes.Buffer
	if err := asrs.WriteDatasetCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	loaded, err := asrs.ReadDatasetCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}

	build := func(d *asrs.Dataset) (asrs.Rect, asrs.Result) {
		f, err := asrs.NewComposite(d.Schema, asrs.AggSpec{Kind: asrs.Distribution, Attr: "category"})
		if err != nil {
			t.Fatal(err)
		}
		orchard := dataset.SingaporeDistricts()[0]
		q, err := asrs.QueryFromRegion(d, f, nil, orchard.Rect)
		if err != nil {
			t.Fatal(err)
		}
		resp, _ := asrs.Answer(d, nil, asrs.QueryRequest{Query: q, A: orchard.Rect.Width(), B: orchard.Rect.Height(), Exclude: []asrs.Rect{orchard.Rect}})
		if resp.Err != nil {
			t.Fatal(resp.Err)
		}
		return resp.Best()
	}

	r1, res1 := build(ds)
	r2, res2 := build(loaded)
	if math.Abs(res1.Dist-res2.Dist) > 1e-9 {
		t.Fatalf("round trip changed answer distance: %g vs %g", res1.Dist, res2.Dist)
	}
	if math.Abs(r1.MinX-r2.MinX) > 1e-9 || math.Abs(r1.MinY-r2.MinY) > 1e-9 {
		t.Fatalf("round trip moved answer region: %v vs %v", r1, r2)
	}
}
