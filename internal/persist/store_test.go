package persist

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"asrs/internal/agg"
	"asrs/internal/dataset"
	"asrs/internal/dssearch"
	"asrs/internal/faultinject"
)

// TestSaveLoadRoundTrip: the deprecated pyramid store round-trips through
// nothing. SavePyramid leaves the path as it found it — absent, or holding
// whatever bytes an older build wrote there — and LoadPyramid returns the
// pyramid a build returns: the same master order and the same limbs.
func TestSaveLoadRoundTrip(t *testing.T) {
	ds := dataset.POISyn(300, 21)
	f := agg.MustNew(ds.Schema, agg.Spec{Kind: agg.Sum, Attr: "visits"}, agg.Spec{Kind: agg.Average, Attr: "rating"})
	want, err := dssearch.BuildPyramid(ds, f)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "pyr")
	if err := SavePyramid(path, want); err != nil {
		t.Fatal(err)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("SavePyramid wrote %v (err %v)", ents, err)
	}
	stale := []byte("ASRSPYR1 from an older build")
	if err := os.WriteFile(path, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := SavePyramid(path, want); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || !bytes.Equal(b, stale) {
		t.Fatalf("SavePyramid touched the file at its path (err %v)", err)
	}
	got, err := LoadPyramid(path, ds, f)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Geometry().Order(), want.Geometry().Order()) {
		t.Fatal("LoadPyramid's master order is not a build's")
	}
	gl, wl := got.Limbs(), want.Limbs()
	if !slices.Equal(gl.Scale, wl.Scale) || !slices.Equal(gl.Lo, wl.Lo) {
		t.Fatalf("LoadPyramid's limbs %v/%v, a build's %v/%v", gl.Scale, gl.Lo, wl.Scale, wl.Lo)
	}
}

// TestLoadMissingFile: LoadPyramid reads no file, so a path that does not
// exist is no error — it is what SavePyramid leaves behind.
func TestLoadMissingFile(t *testing.T) {
	ds := dataset.Tweet(200, 26)
	f := agg.MustNew(ds.Schema, agg.Spec{Kind: agg.Distribution, Attr: "day"})
	p, err := LoadPyramid(filepath.Join(t.TempDir(), "absent"), ds, f)
	if err != nil || p.Objects() != len(ds.Objects) || !p.Matches(ds, f) {
		t.Fatalf("LoadPyramid of a missing path: %v (err %v)", p, err)
	}
}

// saveFaulted saves objs[:n] at path under a plan of one point that fires
// on every call — none for point "" — and reports how often the point
// fired and the save's error.
func saveFaulted(t *testing.T, path string, n int, point string, act faultinject.Action) (uint64, error) {
	t.Helper()
	schema, objs := streamFixture(t, 40, 29)
	plan := faultinject.NewPlan(11, faultinject.Spec{Point: point, Action: act, MaxEvery: 1})
	faultinject.Activate(plan)
	err := SaveIngestSnapshot(path, schema, objs[:n], uint64(n))
	faultinject.Deactivate()
	return plan.FiredAt(point), err
}

// onlySnapshot fails unless dir holds the snapshot alone, of n objects.
func onlySnapshot(t *testing.T, dir string, n int, what string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "ingest.snap" {
		t.Fatalf("%s: the directory holds %v, want the snapshot alone", what, ents)
	}
	schema, _ := streamFixture(t, 0, 29)
	got, lsn, err := LoadIngestSnapshot(filepath.Join(dir, "ingest.snap"), schema)
	if err != nil || len(got) != n || lsn != uint64(n) {
		t.Fatalf("%s: the snapshot holds %d objects at lsn %d (err %v), want %d", what, len(got), lsn, err, n)
	}
}

// TestSaveLeavesNoTempFiles: whatever a snapshot save's fate, the
// directory holds only the published snapshot — the new one after a
// save that succeeded, the old one after a save that failed at its
// write, its fsync or its rename.
func TestSaveLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ingest.snap")
	if _, err := saveFaulted(t, path, 10, "", faultinject.ActError); err != nil {
		t.Fatal(err)
	}
	onlySnapshot(t, dir, 10, "first save")
	if _, err := saveFaulted(t, path, 20, "", faultinject.ActError); err != nil {
		t.Fatal(err)
	}
	onlySnapshot(t, dir, 20, "second save")
	for _, point := range []string{"compact.save", "persist.save.sync", "persist.save.rename"} {
		if _, err := saveFaulted(t, path, 30, point, faultinject.ActError); err == nil {
			t.Fatalf("%s: the save succeeded under a fault on every call", point)
		}
		onlySnapshot(t, dir, 20, point)
	}
}

// TestSaveInjectedWriteErrorLeavesOldFile: with compact.save armed, a
// snapshot save fails typed AND the previous complete snapshot is still
// what the path holds, byte for byte — crash-atomicity under a torn write.
func TestSaveInjectedWriteErrorLeavesOldFile(t *testing.T) {
	schema, objs := streamFixture(t, 40, 28)
	path := filepath.Join(t.TempDir(), "ingest.snap")
	if err := SaveIngestSnapshot(path, schema, objs[:15], 15); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for seed := int64(1); seed <= 8; seed++ {
		for _, act := range []faultinject.Action{faultinject.ActError, faultinject.ActShortWrite} {
			faultinject.Activate(faultinject.NewPlan(seed,
				faultinject.Spec{Point: "compact.save", Action: act, MaxEvery: 2}))
			err := SaveIngestSnapshot(path, schema, objs, 40)
			fired := faultinject.Fired()
			faultinject.Deactivate()
			if fired == 0 {
				// This seed's schedule spared the one write; the save must
				// simply have succeeded. Put the old snapshot back.
				if err != nil {
					t.Fatalf("seed %d %v: no fault fired yet save failed: %v", seed, act, err)
				}
				if err := SaveIngestSnapshot(path, schema, objs[:15], 15); err != nil {
					t.Fatal(err)
				}
				continue
			}
			failed++
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("seed %d %v: err = %v, want ErrInjected", seed, act, err)
			}
			if got, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(got, old) {
				t.Fatalf("seed %d %v: destination perturbed by failed save", seed, act)
			}
		}
	}
	if failed == 0 {
		t.Fatal("no schedule fired: the test asserted nothing")
	}
}

// TestSaveInjectedSyncAndRenameFaults: an fsync or rename failure
// surfaces typed and publishes nothing: the snapshot's bytes are fsynced
// before the rename makes them visible, so a failed fsync leaves the old
// snapshot in place, as a failed rename does. A save that succeeds has
// fsynced twice, the snapshot and then its directory.
func TestSaveInjectedSyncAndRenameFaults(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ingest.snap")
	if _, err := saveFaulted(t, path, 10, "", faultinject.ActError); err != nil {
		t.Fatal(err)
	}
	for _, point := range []string{"persist.save.sync", "persist.save.rename"} {
		fired, err := saveFaulted(t, path, 30, point, faultinject.ActError)
		if !errors.Is(err, faultinject.ErrInjected) || fired != 1 {
			t.Fatalf("%s: err = %v after %d faults, want ErrInjected after one", point, err, fired)
		}
		onlySnapshot(t, dir, 10, point)
	}
	syncs, err := saveFaulted(t, path, 30, "persist.save.sync", faultinject.ActSleep)
	if err != nil || syncs != 2 {
		t.Fatalf("a save fsynced %d times (err %v), want the snapshot and its directory", syncs, err)
	}
	onlySnapshot(t, dir, 30, "save under slow fsyncs")
}
