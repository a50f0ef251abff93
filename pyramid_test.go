package asrs_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"asrs"
	"asrs/internal/dataset"
	"asrs/internal/dssearch"
)

// TestPyramidBytesPinned: the pyramids of the zoo's composites — POISyn's
// F2 at 5 000 objects, its three sums two limbs each, and Tweet's F1 at
// 20 000 — keep the master order and the limbs of the builds that stored
// them in a file (format 6, whose bytes were those fields behind a
// header): a sha256 over the order's ids, the limbs' scales and each
// channel's first extra limb pins them.
func TestPyramidBytesPinned(t *testing.T) {
	for _, c := range []struct {
		name  string
		ds    *asrs.Dataset
		specs []asrs.AggSpec
		sha   string
	}{
		{"poisyn-5k-f2", dataset.POISyn(5000, 42), []asrs.AggSpec{{Kind: asrs.Sum, Attr: "visits"}, {Kind: asrs.Average, Attr: "rating"}},
			"be29dab6fda1b92d46d365ebf81e6125807e4643504b181f29347e06e703acf5"},
		{"tweet-20k-f1", dataset.Tweet(20000, 42), []asrs.AggSpec{{Kind: asrs.Distribution, Attr: "day"}},
			"9a9ad9e551d99a4320a18c14539f133556090199efe4f2df624a24069b158a23"},
	} {
		f, err := asrs.NewComposite(c.ds.Schema, c.specs...)
		if err != nil {
			t.Fatal(err)
		}
		p, err := asrs.BuildPyramid(c.ds, f)
		if err != nil {
			t.Fatal(err)
		}
		var b []byte
		for _, id := range p.Geometry().Order() {
			b = binary.LittleEndian.AppendUint32(b, uint32(id))
		}
		limbs := p.Limbs()
		for _, v := range limbs.Scale {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		for _, lo := range limbs.Lo {
			b = binary.LittleEndian.AppendUint32(b, uint32(lo))
		}
		if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != c.sha {
			t.Errorf("%s: order and limbs sha256 %x, want %s (scales %v, lo %v)", c.name, sum, c.sha, limbs.Scale, limbs.Lo)
		}
	}
}

// TestThreeLimbEndToEnd: a composite whose sums take chains of three
// limbs — values spread from 1e-12 to 1e12 — has a pyramid that folds an
// insert, and answers through it, and without one, Float64bits-equal to
// SearchBaseline.
func TestThreeLimbEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	ds := dataset.Random(400, 100, 8)
	for i := range ds.Objects {
		ds.Objects[i].Values[1].Num = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(25)-12))
	}
	f, err := asrs.NewComposite(ds.Schema, asrs.AggSpec{Kind: asrs.Sum, Attr: "val"}, asrs.AggSpec{Kind: asrs.Average, Attr: "val"})
	if err != nil {
		t.Fatal(err)
	}
	// Four channels can split (the count cannot): more extra limbs than
	// that means some channel takes three.
	if probe, err := dssearch.ProbeCertificate(ds, f); err != nil || probe.Limbs-probe.Channels <= 4 {
		t.Fatalf("probe %+v (%v): no chain of three limbs", probe, err)
	}
	p, err := asrs.BuildPyramid(ds, f)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := asrs.NewEngine(&asrs.Dataset{Schema: ds.Schema, Objects: ds.Objects[:300]}, asrs.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range [][]float64{{3e11, 2}, {-4e-3, 7e-7}, {0, 1e10}} {
		req := asrs.QueryRequest{Query: asrs.Query{F: f, Target: target}, A: 9, B: 7}
		if got := eng.Query(req); got.Err != nil {
			t.Fatal(got.Err)
		}
		want := asrs.SearchBaseline(ds, req)
		if want.Err != nil {
			t.Fatal(want.Err)
		}
		for _, pyr := range []*asrs.Pyramid{nil, p} {
			r := req
			r.Options = &asrs.Options{Pyramid: pyr}
			got, _ := asrs.Answer(ds, nil, r)
			if got.Err != nil || math.Float64bits(got.Results[0].Dist) != math.Float64bits(want.Results[0].Dist) {
				t.Fatalf("target %v, pyramid %v: %+v (%v), the baseline %v", target, pyr != nil, got.Results, got.Err, want.Results[0].Dist)
			}
		}
	}
	if err := eng.InsertBatch(ds.Objects[300:]); err != nil {
		t.Fatal(err)
	}
	req := asrs.QueryRequest{Query: asrs.Query{F: f, Target: []float64{3e11, 2}}, A: 9, B: 7}
	got, want := eng.Query(req), asrs.SearchBaseline(ds, req)
	if got.Err != nil || math.Float64bits(got.Results[0].Dist) != math.Float64bits(want.Results[0].Dist) {
		t.Fatalf("after the insert: %+v (%v), the baseline %v", got.Results, got.Err, want.Results[0].Dist)
	}
	if st := eng.Stats(); st.PyramidFolds != 1 {
		t.Fatalf("pyramid folds %d, want the insert folded", st.PyramidFolds)
	}
}
