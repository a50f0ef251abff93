package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"asrs/internal/faultinject"
)

// collect replays a log directory into memory.
func collect(t *testing.T, dir string, opt Options) (*Log, []uint64, [][]byte) {
	t.Helper()
	var lsns []uint64
	var payloads [][]byte
	l, err := Open(dir, opt, func(lsn uint64, p []byte) error {
		lsns = append(lsns, lsn)
		payloads = append(payloads, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, lsns, payloads
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, lsns, _ := collect(t, dir, Options{Sync: SyncNever})
	if len(lsns) != 0 {
		t.Fatalf("fresh log replayed %d records", len(lsns))
	}
	var want [][]byte
	for i := 0; i < 50; i++ {
		p := []byte(fmt.Sprintf("record-%d-%s", i, bytes.Repeat([]byte{byte(i)}, i)))
		lsn, err := l.Append(p)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("append %d got LSN %d", i, lsn)
		}
		want = append(want, p)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, lsns, payloads := collect(t, dir, Options{Sync: SyncNever})
	defer l2.Close()
	if len(payloads) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(payloads), len(want))
	}
	for i := range want {
		if lsns[i] != uint64(i+1) || !bytes.Equal(payloads[i], want[i]) {
			t.Fatalf("record %d: lsn %d payload %q, want lsn %d payload %q",
				i, lsns[i], payloads[i], i+1, want[i])
		}
	}
	// The reopened log appends where the old one left off.
	if lsn, err := l2.Append([]byte("after")); err != nil || lsn != uint64(len(want)+1) {
		t.Fatalf("append after reopen: lsn %d err %v", lsn, err)
	}
}

// TestRotation: a small SegmentBytes rotates the log into a chain of
// segments, and a reopen replays every record of the chain in LSN order
// and keeps appending after it.
func TestRotation(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := collect(t, dir, Options{Sync: SyncNever, SegmentBytes: 64})
	n := 40
	for i := 0; i < n; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("rotating-record-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(segs))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, lsns, payloads := collect(t, dir, Options{Sync: SyncNever, SegmentBytes: 64})
	defer l2.Close()
	if len(lsns) != n {
		t.Fatalf("replayed %d records over %d segments, want %d", len(lsns), len(segs), n)
	}
	for i, lsn := range lsns {
		if want := fmt.Sprintf("rotating-record-%03d", i); lsn != uint64(i+1) || string(payloads[i]) != want {
			t.Fatalf("record %d: lsn %d payload %q, want %d %q", i, lsn, payloads[i], i+1, want)
		}
	}
	if lsn, err := l2.Append([]byte("after")); err != nil || lsn != uint64(n+1) {
		t.Fatalf("append after reopen: lsn %d err %v", lsn, err)
	}
}

func TestTornTailTruncated(t *testing.T) {
	for _, tear := range []struct {
		name  string
		bytes []byte
	}{
		{"partial_header", []byte{0x03, 0x00}},
		{"partial_payload", []byte{0x10, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 'x', 'y'}},
		{"checksum_mismatch", []byte{0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 'o', 'k'}},
		{"absurd_length", []byte{0xff, 0xff, 0xff, 0xff, 0x00, 0x00, 0x00, 0x00}},
	} {
		t.Run(tear.name, func(t *testing.T) {
			dir := t.TempDir()
			l, _, _ := collect(t, dir, Options{Sync: SyncNever})
			for i := 0; i < 5; i++ {
				if _, err := l.Append([]byte(fmt.Sprintf("good-%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			// Simulate the crash mid-append.
			f, err := os.OpenFile(filepath.Join(dir, segName(1)), os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(tear.bytes); err != nil {
				t.Fatal(err)
			}
			f.Close()

			l2, lsns, _ := collect(t, dir, Options{Sync: SyncNever})
			if len(lsns) != 5 {
				t.Fatalf("replayed %d records after torn tail, want 5", len(lsns))
			}
			// The tail is gone for good: appends extend a clean file and a
			// third open sees exactly 6 records.
			if lsn, err := l2.Append([]byte("post-repair")); err != nil || lsn != 6 {
				t.Fatalf("append after repair: lsn %d err %v", lsn, err)
			}
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}
			l3, lsns, payloads := collect(t, dir, Options{Sync: SyncNever})
			defer l3.Close()
			if len(lsns) != 6 || string(payloads[5]) != "post-repair" {
				t.Fatalf("after repair+append: %d records", len(lsns))
			}
		})
	}
}

func TestCorruptSealedSegmentTyped(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := collect(t, dir, Options{Sync: SyncNever, SegmentBytes: 64})
	for i := 0; i < 40; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("rotating-record-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("segments: %v %v", segs, err)
	}

	t.Run("bit_flip", func(t *testing.T) {
		path := filepath.Join(dir, segs[0].name)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		flipped := append([]byte(nil), b...)
		flipped[len(flipped)/2] ^= 0x40
		if err := os.WriteFile(path, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = Open(dir, Options{Sync: SyncNever}, nil)
		if !errors.Is(err, ErrCorruptRecord) {
			t.Fatalf("corrupt sealed segment: got %v, want ErrCorruptRecord", err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("chain_gap", func(t *testing.T) {
		path := filepath.Join(dir, segs[1].name)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		_, err = Open(dir, Options{Sync: SyncNever}, nil)
		if !errors.Is(err, ErrCorruptRecord) {
			t.Fatalf("segment gap: got %v, want ErrCorruptRecord", err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	})
	// Restored, the log opens cleanly again.
	l2, lsns, _ := collect(t, dir, Options{Sync: SyncNever, SegmentBytes: 64})
	defer l2.Close()
	if len(lsns) != 40 {
		t.Fatalf("restored log replayed %d records, want 40", len(lsns))
	}
}

func TestAppendFaultRollsBack(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := collect(t, dir, Options{Sync: SyncAlways})
	if _, err := l.Append([]byte("before")); err != nil {
		t.Fatal(err)
	}

	// Every write fails with a short prefix: the append must fail typed
	// and leave no trace on disk.
	faultinject.Activate(faultinject.NewPlan(1,
		faultinject.Spec{Point: "wal.append.write", Action: faultinject.ActShortWrite, Bytes: 3, MaxEvery: 1}))
	_, err := l.Append([]byte("torn-away"))
	faultinject.Deactivate()
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("faulted append: got %v, want ErrInjected", err)
	}

	// Sync fault: frame rolled back the same way.
	faultinject.Activate(faultinject.NewPlan(2,
		faultinject.Spec{Point: "wal.append.sync", Action: faultinject.ActError, MaxEvery: 1}))
	_, err = l.Append([]byte("never-durable"))
	faultinject.Deactivate()
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("sync-faulted append: got %v, want ErrInjected", err)
	}

	// The log stays usable and the LSN sequence has no holes.
	lsn, err := l.Append([]byte("after"))
	if err != nil || lsn != 2 {
		t.Fatalf("append after faults: lsn %d err %v", lsn, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, lsns, payloads := collect(t, dir, Options{})
	defer l2.Close()
	if len(lsns) != 2 || string(payloads[0]) != "before" || string(payloads[1]) != "after" {
		t.Fatalf("replay after faults: %d records %q", len(lsns), payloads)
	}
}

func TestReplayReadFaultTyped(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := collect(t, dir, Options{Sync: SyncNever})
	for i := 0; i < 3; i++ {
		if _, err := l.Append([]byte("r")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	faultinject.Activate(faultinject.NewPlan(3,
		faultinject.Spec{Point: "wal.replay.read", Action: faultinject.ActError, MaxEvery: 1}))
	_, err := Open(dir, Options{}, nil)
	faultinject.Deactivate()
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("replay fault: got %v, want ErrInjected", err)
	}
}

func TestClosedAndOversize(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := collect(t, dir, Options{Sync: SyncNever})
	if _, err := l.Append(make([]byte, MaxRecordBytes+1)); err == nil {
		t.Fatal("oversize append accepted")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append on closed: %v", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("sync on closed: %v", err)
	}
	if err := l.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close: %v", err)
	}
}

func TestSyncPolicyParse(t *testing.T) {
	for _, s := range []string{"always", "batch", "never"} {
		p, err := ParseSyncPolicy(s)
		if err != nil || p.String() != s {
			t.Fatalf("round trip %q: %v %v", s, p, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}
