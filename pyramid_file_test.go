package asrs_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"asrs"
	"asrs/internal/dataset"
)

func pyrFileFixture(t *testing.T) (*asrs.Dataset, *asrs.Composite) {
	t.Helper()
	ds := dataset.POISyn(600, 3)
	f, err := asrs.NewComposite(ds.Schema,
		asrs.AggSpec{Kind: asrs.Sum, Attr: "visits"},
		asrs.AggSpec{Kind: asrs.Average, Attr: "rating"},
	)
	if err != nil {
		t.Fatal(err)
	}
	return ds, f
}

// TestLoadOrBuildPyramidFileLifecycle walks the status machine:
// first boot builds, second boot loads, a corrupted file is
// quarantined and rebuilt, and the quarantined evidence survives.
func TestLoadOrBuildPyramidFileLifecycle(t *testing.T) {
	ds, f := pyrFileFixture(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "pyr.bin")

	_, status, err := asrs.LoadOrBuildPyramidFile(path, ds, f)
	if err != nil || status != asrs.PyramidBuilt {
		t.Fatalf("first boot: status=%v err=%v, want built", status, err)
	}
	_, status, err = asrs.LoadOrBuildPyramidFile(path, ds, f)
	if err != nil || status != asrs.PyramidLoaded {
		t.Fatalf("second boot: status=%v err=%v, want loaded", status, err)
	}

	// Tear the file's tail: a crash mid-write on a non-atomic filesystem.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	p, status, err := asrs.LoadOrBuildPyramidFile(path, ds, f)
	if err != nil || status != asrs.PyramidRebuilt {
		t.Fatalf("corrupt boot: status=%v err=%v, want rebuilt", status, err)
	}
	if p == nil {
		t.Fatal("rebuilt pyramid is nil")
	}

	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	quarantined := 0
	for _, e := range ents {
		if strings.Contains(e.Name(), ".corrupt-") && !strings.HasSuffix(e.Name(), ".manifest") {
			quarantined++
		}
	}
	if quarantined != 1 {
		t.Fatalf("want 1 quarantined file, found %d (%v)", quarantined, ents)
	}

	// The rebuilt file must verify on the next boot.
	_, status, err = asrs.LoadOrBuildPyramidFile(path, ds, f)
	if err != nil || status != asrs.PyramidLoaded {
		t.Fatalf("post-rebuild boot: status=%v err=%v, want loaded", status, err)
	}
}

// TestPyramidFileVersion1IsRebuilt: a file left by a build that wrote
// format version 1 (summed-area planes per level) is not decodable any
// more. Its header must read as corrupt, and a boot that finds it must
// set it aside and come up on a rebuilt pyramid.
func TestPyramidFileVersion1IsRebuilt(t *testing.T) { checkOldVersionRebuilt(t, 1) }

// TestPyramidFileVersion2IsRebuilt: so is a file of format version 2,
// which stored the contribution and min/max tables the dataset holds.
func TestPyramidFileVersion2IsRebuilt(t *testing.T) { checkOldVersionRebuilt(t, 2) }

// checkOldVersionRebuilt writes a current file under an older version
// word and boots on it.
func checkOldVersionRebuilt(t *testing.T, version uint32) {
	ds, f := pyrFileFixture(t)
	p, err := asrs.BuildPyramid(ds, f)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := asrs.WritePyramid(&buf, p); err != nil {
		t.Fatal(err)
	}
	old := buf.Bytes()
	if got := binary.LittleEndian.Uint32(old[8:12]); got != 3 {
		t.Fatalf("current format version is %d; this test pins the step to 3", got)
	}
	binary.LittleEndian.PutUint32(old[8:12], version) // the u32 after the 8-byte magic

	if _, err := asrs.ReadPyramid(bytes.NewReader(old), ds, f); !errors.Is(err, asrs.ErrPyramidCorrupt) {
		t.Fatalf("ReadPyramid of a version-%d header: err = %v, want ErrPyramidCorrupt", version, err)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "pyr.bin")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	got, status, err := asrs.LoadOrBuildPyramidFile(path, ds, f)
	if err != nil || status != asrs.PyramidRebuilt || got == nil {
		t.Fatalf("boot on a version-%d file: status=%v err=%v, want rebuilt", version, status, err)
	}
	kept, err := filepath.Glob(path + ".corrupt-*")
	if err != nil || len(kept) != 1 {
		t.Fatalf("want the version-%d file kept as one .corrupt-* sibling, found %v (err %v)", version, kept, err)
	}
	if b, err := os.ReadFile(kept[0]); err != nil || !bytes.Equal(b, old) {
		t.Fatalf("quarantined file differs from the version-%d file (err %v)", version, err)
	}
	if _, status, err = asrs.LoadOrBuildPyramidFile(path, ds, f); err != nil || status != asrs.PyramidLoaded {
		t.Fatalf("boot after the rebuild: status=%v err=%v, want loaded", status, err)
	}
}

// TestLoadOrBuildPyramidFileMismatchIsFatal: a pyramid built for a
// different composite must NOT be quarantined or silently rebuilt —
// it is a deployment error the operator has to see.
func TestLoadOrBuildPyramidFileMismatchIsFatal(t *testing.T) {
	ds, f := pyrFileFixture(t)
	other, err := asrs.NewComposite(ds.Schema, asrs.AggSpec{Kind: asrs.Count})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "pyr.bin")
	if _, _, err := asrs.LoadOrBuildPyramidFile(path, ds, other); err != nil {
		t.Fatal(err)
	}

	_, _, err = asrs.LoadOrBuildPyramidFile(path, ds, f)
	if !errors.Is(err, asrs.ErrPyramidMismatch) {
		t.Fatalf("err = %v, want ErrPyramidMismatch", err)
	}
	// The artifact must be untouched: same path, no quarantine sibling.
	if _, serr := os.Stat(path); serr != nil {
		t.Fatalf("mismatched artifact was moved: %v", serr)
	}
}

// TestSaveLoadPyramidFileAnswers: the exported file API round-trips
// bit-identical answers.
func TestSaveLoadPyramidFileAnswers(t *testing.T) {
	ds, f := pyrFileFixture(t)
	p, _, err := asrs.LoadOrBuildPyramidFile(filepath.Join(t.TempDir(), "a.bin"), ds, f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "b.bin")
	if err := asrs.SavePyramidFile(path, p); err != nil {
		t.Fatal(err)
	}
	loaded, err := asrs.LoadPyramidFile(path, ds, f)
	if err != nil {
		t.Fatal(err)
	}

	target := make([]float64, f.Dims())
	target[0] = 10
	q := asrs.Query{F: f, Target: target}
	r1, res1, _, err := asrs.Search(ds, 5, 5, q, asrs.Options{Pyramid: p})
	if err != nil {
		t.Fatal(err)
	}
	r2, res2, _, err := asrs.Search(ds, 5, 5, q, asrs.Options{Pyramid: loaded})
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 || math.Float64bits(res1.Dist) != math.Float64bits(res2.Dist) || res1.Point != res2.Point {
		t.Fatalf("answers diverge: %v/%+v vs %v/%+v", r1, res1, r2, res2)
	}
}
