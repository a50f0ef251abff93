package gridindex_test

import (
	"bytes"
	"math/rand"
	"testing"

	"asrs/internal/agg"
	"asrs/internal/asp"
	"asrs/internal/dataset"
	"asrs/internal/dssearch"
	"asrs/internal/gridindex"
)

func TestIndexSerializeRoundTrip(t *testing.T) {
	ds := dataset.Random(300, 80, 70)
	f := testComposite(t, ds)
	idx, err := gridindex.New(ds, f, 16, 12)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := idx.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	loaded, err := gridindex.Read(&buf, f)
	if err != nil {
		t.Fatal(err)
	}

	// The loaded index must answer identically: same lower bounds, same
	// GI-DS result.
	rng := rand.New(rand.NewSource(71))
	q := randomTarget(f, rng)
	a, b := 9.0, 7.0
	lbs1 := idx.CellLowerBounds(q, a, b)
	lbs2 := loaded.CellLowerBounds(q, a, b)
	for i := range lbs1 {
		if lbs1[i] != lbs2[i] {
			t.Fatalf("lower bound %d differs: %g vs %g", i, lbs1[i], lbs2[i])
		}
	}
	r1, _, err := gridindex.Solve(idx, ds, q, a, b, nil, dssearch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := gridindex.Solve(loaded, ds, q, a, b, nil, dssearch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Dist != r2.Dist {
		t.Fatalf("loaded index answers differently: %g vs %g", r1.Dist, r2.Dist)
	}
}

func TestIndexReadRejectsMismatch(t *testing.T) {
	ds := dataset.Random(50, 40, 72)
	f := testComposite(t, ds)
	idx, _ := gridindex.New(ds, f, 8, 8)
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Different composite structure.
	other := agg.MustNew(ds.Schema, agg.Spec{Kind: agg.Distribution, Attr: "cat"})
	if _, err := gridindex.Read(bytes.NewReader(data), other); err == nil {
		t.Error("mismatched composite accepted")
	}
	// Nil composite.
	if _, err := gridindex.Read(bytes.NewReader(data), nil); err == nil {
		t.Error("nil composite accepted")
	}
	// Corrupt magic.
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := gridindex.Read(bytes.NewReader(bad), f); err == nil {
		t.Error("corrupt magic accepted")
	}
	// Truncated body.
	if _, err := gridindex.Read(bytes.NewReader(data[:len(data)/2]), f); err == nil {
		t.Error("truncated file accepted")
	}
	// Empty input.
	if _, err := gridindex.Read(bytes.NewReader(nil), f); err == nil {
		t.Error("empty input accepted")
	}
}

func TestIndexSerializeWithMinMax(t *testing.T) {
	// A composite with multiple fA components exercises the min/max
	// sections of the format.
	ds := dataset.Random(200, 60, 73)
	f := agg.MustNew(ds.Schema,
		agg.Spec{Kind: agg.Average, Attr: "val"},
		agg.Spec{Kind: agg.Sum, Attr: "val"},
	)
	idx, err := gridindex.New(ds, f, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := gridindex.Read(&buf, f)
	if err != nil {
		t.Fatal(err)
	}
	q := asp.Query{F: f, Target: []float64{5, 100}}
	lbs1 := idx.CellLowerBounds(q, 8, 8)
	lbs2 := loaded.CellLowerBounds(q, 8, 8)
	for i := range lbs1 {
		if lbs1[i] != lbs2[i] {
			t.Fatalf("min/max round trip: lb %d differs", i)
		}
	}
}
