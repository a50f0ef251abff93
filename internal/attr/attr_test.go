package attr_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"asrs/internal/attr"
	"asrs/internal/geom"
)

func testSchema(t *testing.T) *attr.Schema {
	t.Helper()
	s, err := attr.NewSchema(
		attr.Attribute{Name: "category", Kind: attr.Categorical, Domain: []string{"a", "b"}},
		attr.Attribute{Name: "price", Kind: attr.Numeric},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSchemaLookup(t *testing.T) {
	s := testSchema(t)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Index("price") != 1 || s.Index("nope") != -1 {
		t.Fatal("Index wrong")
	}
	if a, ok := s.Lookup("category"); !ok || a.Kind != attr.Categorical || a.DomainSize() != 2 {
		t.Fatal("Lookup wrong")
	}
	if _, ok := s.Lookup("nope"); ok {
		t.Fatal("Lookup found missing attribute")
	}
	if s.At(0).Name != "category" {
		t.Fatal("At wrong")
	}
}

func TestValueIndex(t *testing.T) {
	s := testSchema(t)
	if s.ValueIndex("category", "b") != 1 {
		t.Fatal("ValueIndex b")
	}
	if s.ValueIndex("category", "zzz") != -1 {
		t.Fatal("ValueIndex missing value")
	}
	if s.ValueIndex("price", "b") != -1 {
		t.Fatal("ValueIndex on numeric")
	}
	if s.ValueIndex("nope", "b") != -1 {
		t.Fatal("ValueIndex on missing attribute")
	}
}

func TestSchemaValidation(t *testing.T) {
	cases := []struct {
		name  string
		attrs []attr.Attribute
	}{
		{"empty name", []attr.Attribute{{Name: "", Kind: attr.Numeric}}},
		{"duplicate", []attr.Attribute{{Name: "x", Kind: attr.Numeric}, {Name: "x", Kind: attr.Numeric}}},
		{"empty domain", []attr.Attribute{{Name: "c", Kind: attr.Categorical}}},
	}
	for _, c := range cases {
		if _, err := attr.NewSchema(c.attrs...); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestMustSchemaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustSchema should panic on bad schema")
		}
	}()
	attr.MustSchema(attr.Attribute{Name: "", Kind: attr.Numeric})
}

func TestDatasetValidate(t *testing.T) {
	s := testSchema(t)
	good := &attr.Dataset{Schema: s, Objects: []attr.Object{
		{Loc: geom.Point{X: 1, Y: 2}, Values: []attr.Value{attr.CatValue(0), attr.NumValue(3)}},
	}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid dataset rejected: %v", err)
	}
	if err := (&attr.Dataset{}).Validate(); err == nil {
		t.Error("nil schema accepted")
	}
	short := &attr.Dataset{Schema: s, Objects: []attr.Object{{Values: []attr.Value{attr.CatValue(0)}}}}
	if err := short.Validate(); err == nil {
		t.Error("short value vector accepted")
	}
	oob := &attr.Dataset{Schema: s, Objects: []attr.Object{
		{Values: []attr.Value{attr.CatValue(5), attr.NumValue(1)}},
	}}
	if err := oob.Validate(); err == nil {
		t.Error("out-of-domain categorical accepted")
	}
}

// TestValidateAdmissibleValues pins the edges of what a composite may
// sum: locations must be finite, and a numeric value 0 or of magnitude
// in [2^-970, 2^960). A refusal wraps ErrInvalid and names the object
// and the attribute.
func TestValidateAdmissibleValues(t *testing.T) {
	s := testSchema(t)
	obj := func(x, v float64) *attr.Dataset {
		return &attr.Dataset{Schema: s, Objects: []attr.Object{
			{Loc: geom.Point{X: 1, Y: 2}, Values: []attr.Value{attr.CatValue(0), attr.NumValue(1)}},
			{Loc: geom.Point{X: x, Y: 2}, Values: []attr.Value{attr.CatValue(1), attr.NumValue(v)}},
		}}
	}
	lo, hi := math.Ldexp(1, -970), math.Ldexp(1, 960)
	for _, v := range []float64{0, math.Copysign(0, -1), lo, -lo, math.Nextafter(hi, 0), -math.Nextafter(hi, 0), 0.1, math.MaxInt64} {
		if err := obj(3, v).Validate(); err != nil {
			t.Errorf("%g refused: %v", v, err)
		}
	}
	for _, v := range []float64{math.Nextafter(lo, 0), -5e-324, 1e-320, hi, -hi, math.Inf(1), math.NaN()} {
		err := obj(3, v).Validate()
		if !errors.Is(err, attr.ErrInvalid) || !strings.Contains(err.Error(), "object 1") || !strings.Contains(err.Error(), `"price"`) {
			t.Errorf("%g: err = %v, want ErrInvalid naming object 1 and \"price\"", v, err)
		}
	}
	for _, x := range []float64{math.NaN(), math.Inf(-1)} {
		if err := obj(x, 1).Validate(); !errors.Is(err, attr.ErrInvalid) || !strings.Contains(err.Error(), "object 1") {
			t.Errorf("location x=%g: err = %v, want ErrInvalid naming object 1", x, err)
		}
	}
}

func TestDatasetBounds(t *testing.T) {
	s := testSchema(t)
	d := &attr.Dataset{Schema: s, Objects: []attr.Object{
		{Loc: geom.Point{X: 1, Y: 9}, Values: []attr.Value{attr.CatValue(0), attr.NumValue(0)}},
		{Loc: geom.Point{X: 4, Y: 2}, Values: []attr.Value{attr.CatValue(1), attr.NumValue(0)}},
	}}
	b := d.Bounds()
	if b != (geom.Rect{MinX: 1, MinY: 2, MaxX: 4, MaxY: 9}) {
		t.Fatalf("bounds = %v", b)
	}
	if len(d.Points()) != 2 {
		t.Fatal("Points")
	}
}

func TestSelectors(t *testing.T) {
	s := testSchema(t)
	o := attr.Object{Values: []attr.Value{attr.CatValue(1), attr.NumValue(5)}}
	if !attr.SelectAll(&o) {
		t.Fatal("SelectAll")
	}
	if !attr.SelectCategory(s.Index("category"), 1)(&o) {
		t.Fatal("SelectCategory match")
	}
	if attr.SelectCategory(s.Index("category"), 0)(&o) {
		t.Fatal("SelectCategory mismatch")
	}
	if !attr.SelectNumRange(1, 0, 10)(&o) {
		t.Fatal("SelectNumRange inside")
	}
	if attr.SelectNumRange(1, 6, 10)(&o) {
		t.Fatal("SelectNumRange outside")
	}
}

func TestKindString(t *testing.T) {
	if attr.Categorical.String() != "categorical" || attr.Numeric.String() != "numeric" {
		t.Fatal("Kind.String")
	}
	if attr.Kind(9).String() == "" {
		t.Fatal("unknown kind string")
	}
}
