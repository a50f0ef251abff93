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
// sums its three sum channels in two limbs each at the zoo's sizes; at
// the paper's 100 000 objects the rating sum takes a chain of three. A
// denormal rating certifies in no chain.
func TestProbeCertificatePOISynF2(t *testing.T) {
	for _, c := range []struct{ n, limbs int }{{5000, 8}, {20000, 8}, {100000, 9}} {
		ds := dataset.POISyn(c.n, 42)
		f := agg.MustNew(ds.Schema,
			agg.Spec{Kind: agg.Sum, Attr: "visits"},
			agg.Spec{Kind: agg.Average, Attr: "rating"},
		)
		p, err := dssearch.ProbeCertificate(ds, f)
		if err != nil || p.Channels != 5 || p.Limbs != c.limbs {
			t.Fatalf("n=%d: %+v (%v), want 5 channels in %d limbs", c.n, p, err, c.limbs)
		}
		if c.n > 5000 {
			continue
		}
		salted := &attr.Dataset{Schema: ds.Schema, Objects: append([]attr.Object(nil), ds.Objects...)}
		o := &salted.Objects[17]
		o.Values = append([]attr.Value(nil), o.Values...)
		o.Values[ds.Schema.Index("rating")] = attr.NumValue(5e-324)
		if p, err := dssearch.ProbeCertificate(salted, f); err == nil {
			t.Fatalf("n=%d with a denormal rating: %+v certified", c.n, p)
		}
	}
}
