package persist

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"asrs/internal/agg"
	"asrs/internal/asp"
	"asrs/internal/attr"
	"asrs/internal/dssearch"
	"asrs/internal/geom"
)

// pyrFixture builds a dataset with integer, decimal (two limbs), min/max
// and full-mantissa (two limbs, the lo grid finer than 2^-62) channels
// plus its pyramid, covering every serialized section.
func pyrFixture(t testing.TB, seed int64) (*attr.Dataset, *agg.Composite, *dssearch.Pyramid) {
	t.Helper()
	schema, err := attr.NewSchema(
		attr.Attribute{Name: "cat", Kind: attr.Categorical, Domain: []string{"x", "y"}},
		attr.Attribute{Name: "price", Kind: attr.Numeric},
		attr.Attribute{Name: "rating", Kind: attr.Numeric},
	)
	if err != nil {
		t.Fatal(err)
	}
	f, err := agg.New(schema,
		agg.Spec{Kind: agg.Distribution, Attr: "cat"},
		agg.Spec{Kind: agg.Average, Attr: "price"},
		agg.Spec{Kind: agg.Sum, Attr: "rating"},
	)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	objs := make([]attr.Object, 180)
	for i := range objs {
		rating := rng.Float64() * 10 // full mantissa: two limbs, the small ones a fine lo grid
		if i%8 == 0 {
			rating = 5e-5 * (1 + rng.Float64())
		}
		objs[i] = attr.Object{
			Loc: geom.Point{X: rng.Float64() * 50, Y: rng.Float64() * 50},
			Values: []attr.Value{
				{Cat: rng.Intn(2)},
				{Num: 0.1 * float64(10+rng.Intn(990))}, // decimal grid: two limbs
				{Num: rating},
			},
		}
	}
	ds := &attr.Dataset{Schema: schema, Objects: objs}
	p, err := dssearch.BuildPyramid(ds, f)
	if err != nil {
		t.Fatal(err)
	}
	return ds, f, p
}

// answer runs one pyramid-bound search for an a×b region.
func answer(t *testing.T, ds *attr.Dataset, f *agg.Composite, p *dssearch.Pyramid, a, b float64) (geom.Rect, asp.Result) {
	t.Helper()
	target := make([]float64, f.Dims())
	target[0] = 4
	target[3] = 1
	q := asp.Query{F: f, Target: target}
	req, err := dssearch.Open(ds, a, b, q, nil, dssearch.Options{Pyramid: p})
	if err != nil {
		t.Fatal(err)
	}
	defer req.Close()
	region, res, err := req.Best(nil)
	if err != nil {
		t.Fatal(err)
	}
	return region, res
}

// TestPyramidRoundTrip: a format-6 file stores the limbs and the order
// and nothing the dataset holds or the anchors determine; the pyramid
// loaded from it — its contribution tables flattened again from the
// objects, its level raised again over the anchors — answers
// queries bit-identically to the in-memory original: region, point and
// the bits of distance and representation, over several shapes.
func TestPyramidRoundTrip(t *testing.T) {
	ds, f, p := pyrFixture(t, 7)
	var buf bytes.Buffer
	n, err := WritePyramid(&buf, p)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WritePyramid reported %d bytes, wrote %d", n, buf.Len())
	}
	s := p.Snapshot()
	head := 8 + 4 + 4 + len(f.Fingerprint()) + 4*4
	limbs := 8*len(s.Scale) + 4*len(s.Lo)
	if want := head + limbs + 4*s.N + 8; buf.Len() != want {
		t.Fatalf("file is %d bytes, want %d: the limbs and the order", buf.Len(), want)
	}
	if slices.Max(s.Scale) <= math.Ldexp(1, 62) {
		t.Fatalf("no lo grid finer than 2^-62 in the fixture: %v", s.Scale)
	}
	loaded, err := ReadPyramid(bytes.NewReader(buf.Bytes()), ds, f)
	if err != nil {
		t.Fatal(err)
	}
	for _, ab := range [][2]float64{{6, 7}, {0.9, 1.3}, {30, 25}} {
		wantRegion, want := answer(t, ds, f, p, ab[0], ab[1])
		gotRegion, got := answer(t, ds, f, loaded, ab[0], ab[1])
		if gotRegion != wantRegion || math.Float64bits(got.Dist) != math.Float64bits(want.Dist) || got.Point != want.Point {
			t.Fatalf("%v: loaded pyramid answered %v@%v (region %v), want %v@%v (region %v)",
				ab, got.Dist, got.Point, gotRegion, want.Dist, want.Point, wantRegion)
		}
		for i := range want.Rep {
			if math.Float64bits(got.Rep[i]) != math.Float64bits(want.Rep[i]) {
				t.Fatalf("%v: loaded pyramid's rep[%d] %v, want %v", ab, i, got.Rep[i], want.Rep[i])
			}
		}
	}
}

// TestPyramidFoldedLevelRoundTrips: a pyramid folded over inserts below
// and left of its base's hull — whose level the fold raised over the
// grown anchors — written and read back, writes the same bytes again and
// answers Float64bits-equal to the folded one: region, point, distance
// and representation.
func TestPyramidFoldedLevelRoundTrips(t *testing.T) {
	ds, f, base := pyrFixture(t, 12)
	extra := make([]attr.Object, 5)
	for i := range extra {
		extra[i] = ds.Objects[i]
		extra[i].Loc = geom.Point{X: -10 - float64(i), Y: -20 + float64(i)}
	}
	combined := &attr.Dataset{Schema: ds.Schema, Objects: append(slices.Clone(ds.Objects), extra...)}
	folded, stats, err := dssearch.BuildPyramidDelta(base, combined)
	if err != nil || !stats.Folded {
		t.Fatalf("fold: %+v, %v; want the inserts folded", stats, err)
	}
	var buf bytes.Buffer
	if _, err := WritePyramid(&buf, folded); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadPyramid(bytes.NewReader(buf.Bytes()), combined, f)
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if _, err := WritePyramid(&again, loaded); err != nil || !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Fatalf("the loaded pyramid writes other bytes (err %v)", err)
	}
	for _, ab := range [][2]float64{{6, 7}, {0.9, 1.3}, {30, 25}} {
		wantRegion, want := answer(t, combined, f, folded, ab[0], ab[1])
		gotRegion, got := answer(t, combined, f, loaded, ab[0], ab[1])
		if gotRegion != wantRegion || math.Float64bits(got.Dist) != math.Float64bits(want.Dist) || got.Point != want.Point {
			t.Fatalf("%v: loaded pyramid answered %v@%v (region %v), the folded one %v@%v (region %v)",
				ab, got.Dist, got.Point, gotRegion, want.Dist, want.Point, wantRegion)
		}
		for i := range want.Rep {
			if math.Float64bits(got.Rep[i]) != math.Float64bits(want.Rep[i]) {
				t.Fatalf("%v: loaded pyramid's rep[%d] %v, the folded one's %v", ab, i, got.Rep[i], want.Rep[i])
			}
		}
	}
}

// TestPyramidTruncated: every truncation of the file — inside the
// header, the limbs, the order, the checksum — must read
// as ErrCorrupt (the class a boot quarantines and rebuilds), never as a
// panic or an unclassified error.
func TestPyramidTruncated(t *testing.T) {
	ds, f, p := pyrFixture(t, 8)
	var buf bytes.Buffer
	if _, err := WritePyramid(&buf, p); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	cuts := []int{0, 4, 16, len(data) / 3, len(data) / 2, len(data) - 9, len(data) - 1}
	for at := 0; at < len(data); at += 97 {
		cuts = append(cuts, at)
	}
	for _, at := range cuts {
		if _, err := ReadPyramid(bytes.NewReader(data[:at]), ds, f); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d/%d bytes: err = %v, want ErrCorrupt", at, len(data), err)
		}
	}
}

// TestPyramidCorrupt: flipping payload bytes must be caught by the
// checksum (or earlier structural validation) as an error, not a wrong
// answer or panic.
func TestPyramidCorrupt(t *testing.T) {
	ds, f, p := pyrFixture(t, 9)
	var buf bytes.Buffer
	if _, err := WritePyramid(&buf, p); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		data := append([]byte(nil), clean...)
		at := 8 + rng.Intn(len(data)-8) // keep the magic so we reach validation
		data[at] ^= 1 << uint(rng.Intn(8))
		if _, err := ReadPyramid(bytes.NewReader(data), ds, f); err == nil {
			t.Fatalf("trial %d: corrupt byte at %d accepted", trial, at)
		}
	}
}

// TestPyramidVersionAndMagic: wrong magic and future versions error out
// with a clear message.
func TestPyramidVersionAndMagic(t *testing.T) {
	ds, f, p := pyrFixture(t, 10)
	var buf bytes.Buffer
	if _, err := WritePyramid(&buf, p); err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), buf.Bytes()...)

	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := ReadPyramid(bytes.NewReader(bad), ds, f); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("wrong magic: err = %v", err)
	}

	bad = append([]byte(nil), data...)
	bad[8] = 99 // version word follows the magic
	if _, err := ReadPyramid(bytes.NewReader(bad), ds, f); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("wrong version: err = %v", err)
	}
}

// TestPyramidCompositeMismatch: loading against a structurally
// different composite fails the fingerprint check; loading against a
// different-size dataset fails the cardinality check.
func TestPyramidCompositeMismatch(t *testing.T) {
	ds, f, p := pyrFixture(t, 11)
	var buf bytes.Buffer
	if _, err := WritePyramid(&buf, p); err != nil {
		t.Fatal(err)
	}
	other, err := agg.New(ds.Schema, agg.Spec{Kind: agg.Count})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPyramid(bytes.NewReader(buf.Bytes()), ds, other); err == nil {
		t.Fatal("composite mismatch accepted")
	}
	short := &attr.Dataset{Schema: ds.Schema, Objects: ds.Objects[:len(ds.Objects)-3]}
	if _, err := ReadPyramid(bytes.NewReader(buf.Bytes()), short, f); err == nil {
		t.Fatal("dataset cardinality mismatch accepted")
	}
}
