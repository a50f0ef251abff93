package persist

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"asrs/internal/attr"
	"asrs/internal/faultinject"
	"asrs/internal/geom"
)

// streamFixture builds a schema with categorical and numeric attributes
// plus a deterministic object stream.
func streamFixture(t testing.TB, n int, seed int64) (*attr.Schema, []attr.Object) {
	t.Helper()
	schema, err := attr.NewSchema(
		attr.Attribute{Name: "cat", Kind: attr.Categorical, Domain: []string{"a", "b", "c"}},
		attr.Attribute{Name: "visits", Kind: attr.Numeric},
		attr.Attribute{Name: "rating", Kind: attr.Numeric},
	)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	objs := make([]attr.Object, n)
	for i := range objs {
		objs[i] = attr.Object{
			Loc: geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100},
			Values: []attr.Value{
				{Cat: rng.Intn(3)},
				{Num: float64(rng.Intn(500))},
				{Num: 0.5 * float64(rng.Intn(10))},
			},
		}
	}
	return schema, objs
}

func objectsEqual(a, b []attr.Object) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].Loc.X) != math.Float64bits(b[i].Loc.X) ||
			math.Float64bits(a[i].Loc.Y) != math.Float64bits(b[i].Loc.Y) ||
			len(a[i].Values) != len(b[i].Values) {
			return false
		}
		for j := range a[i].Values {
			if a[i].Values[j].Cat != b[i].Values[j].Cat ||
				math.Float64bits(a[i].Values[j].Num) != math.Float64bits(b[i].Values[j].Num) {
				return false
			}
		}
	}
	return true
}

func TestObjectCodecRoundTrip(t *testing.T) {
	schema, objs := streamFixture(t, 137, 5)
	for _, n := range []int{0, 1, 137} {
		payload := EncodeObjects(schema, objs[:n])
		got, err := DecodeObjects(schema, payload)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !objectsEqual(got, objs[:n]) {
			t.Fatalf("n=%d: round trip diverged", n)
		}
	}
}

func TestObjectCodecDamage(t *testing.T) {
	schema, objs := streamFixture(t, 9, 6)
	payload := EncodeObjects(schema, objs)
	cases := map[string][]byte{
		"empty":            {},
		"count_only":       payload[:4],
		"torn_mid_object":  payload[:len(payload)-5],
		"trailing_garbage": append(append([]byte(nil), payload...), 0xee),
		"absurd_count":     {0xff, 0xff, 0xff, 0xff},
	}
	// Out-of-domain categorical: bump the first object's cat uvarint
	// (offset 4 count + 16 location) past the domain.
	bad := append([]byte(nil), payload...)
	bad[4+16] = 0x7f
	cases["cat_out_of_domain"] = bad
	for name, data := range cases {
		if _, err := DecodeObjects(schema, data); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestDecodeAppendArena: payloads decoded one after another into one
// object slice, their values carved from one arena that outgrows its
// capacity several times, are what DecodeObjects decodes from each — the
// objects decoded first included, after every later decode — and a
// damaged payload leaves the slice and the arena as they were.
func TestDecodeAppendArena(t *testing.T) {
	schema, objs := streamFixture(t, 40, 7)
	var staged []attr.Object
	arena := make([]attr.Value, 0, 2)
	for lo, n := 0, 1; lo < len(objs); lo, n = lo+n, n%5+1 {
		hi := min(lo+n, len(objs))
		var err error
		if staged, arena, err = DecodeAppend(staged, arena, schema, EncodeObjects(schema, objs[lo:hi])); err != nil {
			t.Fatal(err)
		}
		if !objectsEqual(staged, objs[:hi]) {
			t.Fatalf("after objects [%d, %d): the decoded objects diverged", lo, hi)
		}
	}
	if cap(arena) < 2*3 {
		t.Fatalf("the arena kept capacity %d: it never grew", cap(arena))
	}
	payload := EncodeObjects(schema, objs[:3])
	got, left, err := DecodeAppend(staged, arena, schema, payload[:len(payload)-1])
	if !errors.Is(err, ErrCorrupt) || len(got) != len(staged) || len(left) != len(arena) || &left[:1][0] != &arena[:1][0] {
		t.Fatalf("a torn payload: err %v, %d objects and %d values back, want ErrCorrupt and %d and %d as they were", err, len(got), len(left), len(staged), len(arena))
	}
	if !objectsEqual(got, objs) {
		t.Fatal("a torn payload changed the objects decoded before it")
	}
}

// TestSchemaRecord: a schema record is told apart from every object
// payload, checks against its own schema and refuses another schema's
// with ErrMismatch, and an object decoder (an earlier build's replay)
// refuses it as corrupt.
func TestSchemaRecord(t *testing.T) {
	schema, objs := streamFixture(t, 9, 8)
	reordered, err := attr.NewSchema(
		attr.Attribute{Name: "cat", Kind: attr.Categorical, Domain: []string{"b", "a", "c"}},
		attr.Attribute{Name: "visits", Kind: attr.Numeric},
		attr.Attribute{Name: "rating", Kind: attr.Numeric},
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 9} {
		if ok, err := CheckSchemaRecord(schema, EncodeObjects(schema, objs[:n])); ok || err != nil {
			t.Fatalf("a payload of %d objects read as a schema record (err %v)", n, err)
		}
	}
	rec := EncodeSchemaRecord(schema)
	if ok, err := CheckSchemaRecord(schema, rec); !ok || err != nil {
		t.Fatalf("own schema record: ok=%v err=%v", ok, err)
	}
	if ok, err := CheckSchemaRecord(reordered, rec); !ok || !errors.Is(err, ErrMismatch) {
		t.Fatalf("reordered domain: ok=%v err=%v, want ErrMismatch", ok, err)
	}
	if ok, err := CheckSchemaRecord(schema, rec[:4]); !ok || !errors.Is(err, ErrMismatch) {
		t.Fatalf("record without a fingerprint: ok=%v err=%v, want ErrMismatch", ok, err)
	}
	if _, err := DecodeObjects(schema, rec); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("DecodeObjects on a schema record: %v, want ErrCorrupt", err)
	}
}

func TestIngestSnapshotRoundTrip(t *testing.T) {
	schema, objs := streamFixture(t, 64, 7)
	path := filepath.Join(t.TempDir(), "ingest.snap")

	// Missing file is the empty snapshot, not an error.
	got, lsn, err := LoadIngestSnapshot(path, schema)
	if err != nil || got != nil || lsn != 0 {
		t.Fatalf("missing snapshot: %v %v %d", got, err, lsn)
	}

	if err := SaveIngestSnapshot(path, schema, objs, 421); err != nil {
		t.Fatal(err)
	}
	got, lsn, err = LoadIngestSnapshot(path, schema)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 421 || !objectsEqual(got, objs) {
		t.Fatalf("round trip: lsn %d, %d objects", lsn, len(got))
	}

	// Overwrite with a later snapshot: the commit point advances.
	if err := SaveIngestSnapshot(path, schema, objs[:10], 500); err != nil {
		t.Fatal(err)
	}
	got, lsn, err = LoadIngestSnapshot(path, schema)
	if err != nil || lsn != 500 || len(got) != 10 {
		t.Fatalf("second snapshot: lsn %d n %d err %v", lsn, len(got), err)
	}
}

func TestIngestSnapshotTaxonomy(t *testing.T) {
	schema, objs := streamFixture(t, 20, 8)
	dir := t.TempDir()
	path := filepath.Join(dir, "ingest.snap")
	if err := SaveIngestSnapshot(path, schema, objs, 7); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Body flip → checksum catches it → ErrCorrupt.
	flip := append([]byte(nil), raw...)
	flip[len(flip)/2] ^= 0x08
	if err := os.WriteFile(path, flip, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadIngestSnapshot(path, schema); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped snapshot: %v, want ErrCorrupt", err)
	}
	// Truncation → ErrCorrupt.
	if err := os.WriteFile(path, raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadIngestSnapshot(path, schema); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated snapshot: %v, want ErrCorrupt", err)
	}
	// Different schema → ErrMismatch.
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	other := attr.MustSchema(attr.Attribute{Name: "other", Kind: attr.Numeric})
	if _, _, err := LoadIngestSnapshot(path, other); !errors.Is(err, ErrMismatch) {
		t.Fatalf("wrong schema: %v, want ErrMismatch", err)
	}
}

// TestIngestSnapshotCrashAtomic: with compact.save armed, the save
// fails typed and the destination still holds the previous complete
// snapshot — a save never tears.
func TestIngestSnapshotCrashAtomic(t *testing.T) {
	schema, objs := streamFixture(t, 40, 9)
	dir := t.TempDir()
	path := filepath.Join(dir, "ingest.snap")
	if err := SaveIngestSnapshot(path, schema, objs[:15], 15); err != nil {
		t.Fatal(err)
	}

	faultinject.Activate(faultinject.NewPlan(4,
		faultinject.Spec{Point: "compact.save", Action: faultinject.ActShortWrite, Bytes: 9, MaxEvery: 1}))
	err := SaveIngestSnapshot(path, schema, objs, 40)
	faultinject.Deactivate()
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("faulted save: %v, want ErrInjected", err)
	}

	got, lsn, err := LoadIngestSnapshot(path, schema)
	if err != nil || lsn != 15 || len(got) != 15 {
		t.Fatalf("old snapshot damaged: lsn %d n %d err %v", lsn, len(got), err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() != "ingest.snap" {
			t.Fatalf("temp file leaked: %s", e.Name())
		}
	}
}
