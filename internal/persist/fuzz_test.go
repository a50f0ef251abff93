package persist

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"asrs/internal/attr"
	"asrs/internal/geom"
)

// FuzzReadSnapshot throws arbitrary bytes at the ASRSNAP1 ingest
// snapshot decoder (header, schema fingerprint, object payload with its
// mixed uvarint/fixed64 attribute encoding, trailing checksum). The
// contract is the error taxonomy's: every input either decodes — and
// then round-trips bit-exactly through re-encode — or fails with an
// error wrapping ErrCorrupt or ErrMismatch; never a panic, never an
// unclassified error, never an out-of-domain categorical index.
//
// Run locally with:
//
//	go test -run '^$' -fuzz FuzzReadSnapshot -fuzztime 30s ./internal/persist
func FuzzReadSnapshot(f *testing.F) {
	schema := attr.MustSchema(
		attr.Attribute{Name: "cat", Kind: attr.Categorical, Domain: []string{"a", "b", "c"}},
		attr.Attribute{Name: "val", Kind: attr.Numeric},
	)
	objs := []attr.Object{
		{Loc: geom.Point{X: 1, Y: 2}, Values: []attr.Value{attr.CatValue(0), attr.NumValue(3.5)}},
		{Loc: geom.Point{X: -4, Y: 8}, Values: []attr.Value{attr.CatValue(2), attr.NumValue(math.Inf(1))}},
		{Loc: geom.Point{X: 0, Y: 0}, Values: []attr.Value{attr.CatValue(1), attr.NumValue(math.NaN())}},
	}
	valid := EncodeIngestSnapshot(schema, objs, 42)
	empty := EncodeIngestSnapshot(schema, nil, 0)

	f.Add(valid)
	f.Add(empty)
	f.Add([]byte{})
	f.Add(valid[:8])            // magic only
	f.Add(valid[:16])           // torn inside the header
	f.Add(valid[:len(valid)/2]) // torn mid-payload
	f.Add(valid[:len(valid)-4]) // torn inside the checksum
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	flip := func(off int, x byte) []byte {
		b := append([]byte(nil), valid...)
		b[off] ^= x
		return b
	}
	f.Add(flip(0, 0x01))            // broken magic
	f.Add(flip(8, 0x7f))            // absurd version
	f.Add(flip(12, 0xff))           // mangled appliedLSN
	f.Add(flip(20, 0xff))           // huge fingerprint length
	f.Add(flip(24, 0x01))           // fingerprint flip → ErrMismatch shape
	f.Add(flip(len(valid)-1, 0x01)) // checksum flip
	f.Add(flip(len(valid)/2, 0x10)) // payload flip caught by checksum

	f.Fuzz(func(t *testing.T, data []byte) {
		got, lsn, err := DecodeIngestSnapshot(schema, data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrMismatch) {
				t.Fatalf("unclassified decode error: %v", err)
			}
			return
		}
		for i := range got {
			if len(got[i].Values) != schema.Len() {
				t.Fatalf("object %d decoded %d values, schema has %d", i, len(got[i].Values), schema.Len())
			}
			if c := got[i].Values[0].Cat; c < 0 || c >= 3 {
				t.Fatalf("object %d categorical index %d escaped the domain", i, c)
			}
		}
		// A decodable snapshot must survive a re-encode/decode round trip
		// value-exactly (bit-level on floats) — the snapshot's
		// durability contract. Byte equality is NOT required: the decoder
		// tolerates non-minimal uvarints that re-encode canonically.
		got2, lsn2, err2 := DecodeIngestSnapshot(schema, EncodeIngestSnapshot(schema, got, lsn))
		if err2 != nil || lsn2 != lsn || len(got2) != len(got) {
			t.Fatalf("round trip: err %v, lsn %d→%d, %d→%d objects", err2, lsn, lsn2, len(got), len(got2))
		}
		for i := range got {
			if math.Float64bits(got2[i].Loc.X) != math.Float64bits(got[i].Loc.X) ||
				math.Float64bits(got2[i].Loc.Y) != math.Float64bits(got[i].Loc.Y) {
				t.Fatalf("object %d location changed across round trip", i)
			}
			for j := range got[i].Values {
				a, b := got[i].Values[j], got2[i].Values[j]
				if a.Cat != b.Cat || math.Float64bits(a.Num) != math.Float64bits(b.Num) {
					t.Fatalf("object %d value %d changed across round trip", i, j)
				}
			}
		}
	})
}
