package dssearch_test

import (
	"testing"

	"asrs/internal/agg"
	"asrs/internal/attr"
	"asrs/internal/dataset"
	"asrs/internal/dssearch"
)

// TestProbeCertificatePOISynF2: the paper's F2 on POISyn — visits and
// ratings are full-mantissa reals, the ratings reaching down to 5e-5 —
// certifies every channel at the zoo's sizes, its sums two limbs each;
// one denormal rating leaves its channel uncertified.
func TestProbeCertificatePOISynF2(t *testing.T) {
	for _, n := range []int{5000, 20000} {
		ds := dataset.POISyn(n, 42)
		f := agg.MustNew(ds.Schema,
			agg.Spec{Kind: agg.Sum, Attr: "visits"},
			agg.Spec{Kind: agg.Average, Attr: "rating"},
		)
		p := dssearch.ProbeCertificate(ds, f)
		if p.Fallback != 0 || p.TwoFloat != 3 || p.Path() != "sat+two-float" {
			t.Fatalf("n=%d: %+v (%s), want every channel certified, the three sums two limbs each", n, p, p.Path())
		}
		if n > 5000 {
			continue
		}
		salted := &attr.Dataset{Schema: ds.Schema, Objects: append([]attr.Object(nil), ds.Objects...)}
		o := &salted.Objects[17]
		o.Values = append([]attr.Value(nil), o.Values...)
		o.Values[ds.Schema.Index("rating")] = attr.NumValue(5e-324)
		if p := dssearch.ProbeCertificate(salted, f); p.Fallback != 1 || p.Path() != "sat+fallback" {
			t.Fatalf("n=%d with a denormal rating: %+v (%s), want the rating sum uncertified", n, p, p.Path())
		}
	}
}
