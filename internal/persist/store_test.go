package persist

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"asrs/internal/faultinject"
)

// TestSaveLoadRoundTrip: the file-level store preserves answers
// bit-identically and writes a manifest that vouches for the bytes.
func TestSaveLoadRoundTrip(t *testing.T) {
	ds, f, p := pyrFixture(t, 21)
	path := filepath.Join(t.TempDir(), "pyr.bin")
	if err := SavePyramid(path, p); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ManifestPath(path)); err != nil {
		t.Fatalf("manifest missing after save: %v", err)
	}
	loaded, err := LoadPyramid(path, ds, f)
	if err != nil {
		t.Fatal(err)
	}
	wantRegion, want := answer(t, ds, f, p, 6, 7)
	gotRegion, got := answer(t, ds, f, loaded, 6, 7)
	if gotRegion != wantRegion || got.Dist != want.Dist || got.Point != want.Point {
		t.Fatalf("answers diverge after save/load: %+v/%+v vs %+v/%+v",
			gotRegion, got, wantRegion, want)
	}
}

// TestSaveLeavesNoTempFiles: success or not, the directory holds only
// the published artifacts.
func TestSaveLeavesNoTempFiles(t *testing.T) {
	_, _, p := pyrFixture(t, 22)
	dir := t.TempDir()
	path := filepath.Join(dir, "pyr.bin")
	if err := SavePyramid(path, p); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
	if len(ents) != 2 {
		t.Fatalf("want exactly data+manifest, got %d entries", len(ents))
	}
}

// TestLoadManifestChecksumCatchesFlip: a bit flip in the data file is
// caught by the manifest pre-check before the decoder even runs, and
// classified ErrCorrupt.
func TestLoadManifestChecksumCatchesFlip(t *testing.T) {
	ds, f, p := pyrFixture(t, 23)
	path := filepath.Join(t.TempDir(), "pyr.bin")
	if err := SavePyramid(path, p); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x40
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadPyramid(path, ds, f)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), "manifest checksum") {
		t.Fatalf("flip not caught by the manifest pre-check: %v", err)
	}
}

// TestLoadTruncatedIsCorrupt: a torn tail (crash mid-write simulated
// after the fact) is ErrCorrupt whether or not the manifest survived.
func TestLoadTruncatedIsCorrupt(t *testing.T) {
	ds, f, p := pyrFixture(t, 24)
	for _, keepManifest := range []bool{true, false} {
		path := filepath.Join(t.TempDir(), "pyr.bin")
		if err := SavePyramid(path, p); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b[:len(b)*3/4], 0o644); err != nil {
			t.Fatal(err)
		}
		if !keepManifest {
			os.Remove(ManifestPath(path))
		}
		_, err = LoadPyramid(path, ds, f)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("keepManifest=%v: err = %v, want ErrCorrupt", keepManifest, err)
		}
	}
}

// TestLoadStaleManifestIgnored: a manifest whose size disagrees with
// the data file (crash between the two renames) must not reject a
// valid file — the decode checksum is authoritative.
func TestLoadStaleManifestIgnored(t *testing.T) {
	ds, f, p := pyrFixture(t, 25)
	path := filepath.Join(t.TempDir(), "pyr.bin")
	if err := SavePyramid(path, p); err != nil {
		t.Fatal(err)
	}
	// Corrupt the manifest into a plausible-but-stale record.
	stale := pyramidManifest{Format: pyramidManifestFormat, Size: 12345, FNV64a: "00000000deadbeef"}
	if err := saveManifest(path, stale); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPyramid(path, ds, f); err != nil {
		t.Fatalf("stale manifest rejected a valid file: %v", err)
	}
	// A garbage manifest likewise falls back to decoding.
	if err := os.WriteFile(ManifestPath(path), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPyramid(path, ds, f); err != nil {
		t.Fatalf("garbage manifest rejected a valid file: %v", err)
	}
}

// TestLoadMissingFile surfaces os.IsNotExist, not ErrCorrupt — the
// caller builds fresh, no quarantine involved.
func TestLoadMissingFile(t *testing.T) {
	ds, f, _ := pyrFixture(t, 26)
	_, err := LoadPyramid(filepath.Join(t.TempDir(), "absent.bin"), ds, f)
	if !os.IsNotExist(err) {
		t.Fatalf("err = %v, want not-exist", err)
	}
	if errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing file misclassified as corrupt: %v", err)
	}
}

// TestQuarantine moves data+manifest aside and frees the path;
// quarantining an absent file is a no-op.
func TestQuarantine(t *testing.T) {
	_, _, p := pyrFixture(t, 27)
	path := filepath.Join(t.TempDir(), "pyr.bin")
	if err := SavePyramid(path, p); err != nil {
		t.Fatal(err)
	}
	qpath, err := Quarantine(path)
	if err != nil {
		t.Fatal(err)
	}
	if qpath == "" || !strings.Contains(qpath, ".corrupt-") {
		t.Fatalf("quarantine path %q", qpath)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("original path still occupied: %v", err)
	}
	if _, err := os.Stat(qpath); err != nil {
		t.Fatalf("quarantined data missing: %v", err)
	}
	if _, err := os.Stat(qpath + ".manifest"); err != nil {
		t.Fatalf("quarantined manifest missing: %v", err)
	}
	// Idempotent on an already-moved file.
	q2, err := Quarantine(path)
	if err != nil || q2 != "" {
		t.Fatalf("second quarantine: %q, %v", q2, err)
	}
}

// TestSaveInjectedWriteErrorLeavesOldFile: with persist.save.write
// armed, SavePyramid fails typed AND the previous complete file is
// still what LoadPyramid sees — crash-atomicity under a torn write.
func TestSaveInjectedWriteErrorLeavesOldFile(t *testing.T) {
	ds, f, p := pyrFixture(t, 28)
	path := filepath.Join(t.TempDir(), "pyr.bin")
	if err := SavePyramid(path, p); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for seed := int64(1); seed <= 8; seed++ {
		for _, act := range []faultinject.Action{faultinject.ActError, faultinject.ActShortWrite} {
			faultinject.Activate(faultinject.NewPlan(seed,
				faultinject.Spec{Point: "persist.save.write", Action: act, MaxEvery: 4}))
			err := SavePyramid(path, p)
			fired := faultinject.Fired()
			faultinject.Deactivate()
			if fired == 0 {
				// This seed's schedule never hit a write; the save must
				// simply have succeeded.
				if err != nil {
					t.Fatalf("seed %d %v: no fault fired yet save failed: %v", seed, act, err)
				}
				continue
			}
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("seed %d %v: err = %v, want ErrInjected", seed, act, err)
			}
			got, rerr := os.ReadFile(path)
			if rerr != nil || !bytes.Equal(got, old) {
				t.Fatalf("seed %d %v: destination perturbed by failed save", seed, act)
			}
			if _, lerr := LoadPyramid(path, ds, f); lerr != nil {
				t.Fatalf("seed %d %v: old file unloadable after failed save: %v", seed, act, lerr)
			}
		}
	}
}

// TestSaveInjectedSyncAndRenameFaults: fsync and rename failures are
// surfaced typed and never tear the destination.
func TestSaveInjectedSyncAndRenameFaults(t *testing.T) {
	ds, f, p := pyrFixture(t, 29)
	for _, point := range []string{"persist.save.sync", "persist.save.rename"} {
		path := filepath.Join(t.TempDir(), "pyr.bin")
		faultinject.Activate(faultinject.NewPlan(11,
			faultinject.Spec{Point: point, Action: faultinject.ActError, MaxEvery: 1}))
		err := SavePyramid(path, p)
		faultinject.Deactivate()
		if !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("%s: err = %v, want ErrInjected", point, err)
		}
		if _, serr := os.Stat(path); !os.IsNotExist(serr) {
			// If the file landed despite a later fault it must be complete.
			if _, lerr := LoadPyramid(path, ds, f); lerr != nil {
				t.Fatalf("%s: destination file torn: %v", point, lerr)
			}
		}
	}
}

// TestLoadInjectedReadError: an injected read fault surfaces as a
// typed error (ErrInjected via ErrCorrupt wrapping or direct), never a
// panic.
func TestLoadInjectedReadError(t *testing.T) {
	ds, f, p := pyrFixture(t, 30)
	path := filepath.Join(t.TempDir(), "pyr.bin")
	if err := SavePyramid(path, p); err != nil {
		t.Fatal(err)
	}
	faultinject.Activate(faultinject.NewPlan(13,
		faultinject.Spec{Point: "persist.load.read", Action: faultinject.ActError, MaxEvery: 3}))
	_, err := LoadPyramid(path, ds, f)
	faultinject.Deactivate()
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected in chain", err)
	}
}
