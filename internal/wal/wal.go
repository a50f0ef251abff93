// Package wal implements the checksummed, segment-rotating write-ahead
// log behind Engine.Insert's durability contract (DESIGN.md §10). The
// log is a directory of segment files, each named by the LSN of its
// first record:
//
//	wal-0000000000000001.seg
//	wal-00000000000004e3.seg
//	...
//
// Records are opaque payloads framed as
//
//	u32 LE payload length | u32 LE CRC-32C (Castagnoli) of payload | payload
//
// and LSNs are implicit: record i of a segment has LSN firstLSN+i, so
// segments are contiguous by construction and a missing segment is
// detectable from the names alone.
//
// Recovery semantics:
//
//   - A damaged frame in the FINAL segment is a torn tail — the crash
//     interrupted the last append. Open truncates the segment at the
//     last complete record and returns cleanly; whatever was acked
//     before the torn append is intact by the fsync contract.
//   - A damaged frame in any EARLIER segment, or a gap in the segment
//     chain, is real corruption: the fsynced history is damaged, and
//     silently dropping acked records would break the no-acked-loss
//     invariant. Open fails with an error wrapping ErrCorruptRecord.
//
// The fsync policy is a knob (SyncPolicy): SyncAlways fsyncs every
// append before acking (the durability default), SyncBatch fsyncs only
// on explicit Sync calls and at segment rotation (amortized group
// commit), SyncNever leaves flushing to the OS (benchmarks, tests).
package wal

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"asrs/internal/faultinject"
)

// SyncPolicy selects when appends are flushed to stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append, before the append returns:
	// an acked record survives any crash. The default.
	SyncAlways SyncPolicy = iota
	// SyncBatch fsyncs only on explicit Sync calls and at segment
	// rotation. Callers group-commit: append a batch, Sync once, then
	// ack the whole batch.
	SyncBatch
	// SyncNever never fsyncs; durability is whatever the OS provides.
	SyncNever
)

// String implements fmt.Stringer.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncBatch:
		return "batch"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy parses "always", "batch" or "never".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "batch":
		return SyncBatch, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want always|batch|never)", s)
}

// ErrCorruptRecord marks damage in the fsynced history: a bad frame
// before the final segment's tail, or a gap in the segment chain.
// Distinct from a torn tail, which Open repairs silently.
var ErrCorruptRecord = errors.New("wal: corrupt record")

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: closed")

const (
	// frameHeader is the per-record overhead: u32 length + u32 CRC-32C.
	frameHeader = 8
	// MaxRecordBytes bounds one record's payload. Replay rejects larger
	// length fields before allocating, so a corrupted length cannot
	// balloon memory.
	MaxRecordBytes = 64 << 20
	// DefaultSegmentBytes is the rotation threshold when Options leaves
	// SegmentBytes zero.
	DefaultSegmentBytes = 4 << 20

	segPrefix = "wal-"
	segSuffix = ".seg"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options configures a log.
type Options struct {
	// SegmentBytes rotates to a fresh segment once the active one
	// reaches this size (<=0 selects DefaultSegmentBytes). Rotation
	// bounds one file's size; nothing ever deletes a segment.
	SegmentBytes int64
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy
}

// Log is an open write-ahead log. Append/Sync/Close are safe for
// concurrent use.
type Log struct {
	dir string
	opt Options

	mu      sync.Mutex
	f       *os.File // active segment
	size    int64    // bytes in the active segment
	nextLSN uint64   // LSN the next append receives
	closed  bool
	sticky  error // unrecoverable append failure; poisons the log
}

// segName formats a segment file name from its first LSN.
func segName(firstLSN uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, firstLSN, segSuffix)
}

// parseSegName extracts the first LSN from a segment file name.
func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	if len(hex) != 16 {
		return 0, false
	}
	lsn, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return lsn, true
}

// segInfo is one segment discovered during Open.
type segInfo struct {
	name     string
	firstLSN uint64
}

// listSegments returns the log's segments sorted by first LSN.
func listSegments(dir string) ([]segInfo, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segInfo
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		if lsn, ok := parseSegName(ent.Name()); ok {
			segs = append(segs, segInfo{name: ent.Name(), firstLSN: lsn})
		}
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a].firstLSN < segs[b].firstLSN })
	return segs, nil
}

// Open opens (creating if necessary) the log in dir, replaying every
// complete record through fn in LSN order before making the log
// appendable. A torn tail in the final segment is truncated away; any
// earlier damage fails with ErrCorruptRecord. A non-nil error from fn
// aborts the replay and is returned verbatim.
//
// The directory must be dedicated to one log: Open considers every
// wal-*.seg file part of the sequence.
func Open(dir string, opt Options, fn func(lsn uint64, payload []byte) error) (*Log, error) {
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating directory: %w", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: listing segments: %w", err)
	}

	l := &Log{dir: dir, opt: opt, nextLSN: 1}
	if len(segs) == 0 {
		if err := l.openActive(segName(1), true); err != nil {
			return nil, err
		}
		return l, nil
	}

	next := segs[0].firstLSN
	for i, seg := range segs {
		if seg.firstLSN != next {
			return nil, fmt.Errorf("wal: segment chain gap: %s starts at LSN %d, want %d: %w",
				seg.name, seg.firstLSN, next, ErrCorruptRecord)
		}
		final := i == len(segs)-1
		count, keep, err := replaySegment(filepath.Join(dir, seg.name), seg.firstLSN, final, fn)
		if err != nil {
			return nil, err
		}
		next = seg.firstLSN + uint64(count)
		if final {
			l.nextLSN = next
			l.size = keep
			if err := l.openActive(seg.name, false); err != nil {
				return nil, err
			}
		}
	}
	return l, nil
}

// replaySegment streams one segment's records through fn, returning the
// record count and the byte offset of the last complete record's end.
// In the final segment a damaged tail is truncated to that offset; in
// earlier segments it is ErrCorruptRecord.
func replaySegment(path string, firstLSN uint64, final bool, fn func(lsn uint64, payload []byte) error) (count int, keep int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: opening segment: %w", err)
	}
	defer f.Close()

	// Buffered: a record costs two reads (frame header, payload), and a
	// log of single-object inserts is mostly records of a few dozen bytes.
	r := bufio.NewReaderSize(&faultReader{r: f}, 64<<10)
	var (
		off    int64
		header [frameHeader]byte
		buf    []byte
	)
	torn := func(cause string) (int, int64, error) {
		if !final {
			return 0, 0, fmt.Errorf("wal: %s at offset %d of non-final segment %s: %w",
				cause, off, filepath.Base(path), ErrCorruptRecord)
		}
		// Torn tail: drop the partial append so the segment ends at a
		// frame boundary and future appends extend a clean file.
		f.Close()
		if err := os.Truncate(path, off); err != nil {
			return 0, 0, fmt.Errorf("wal: truncating torn tail of %s: %w", filepath.Base(path), err)
		}
		return count, off, nil
	}
	for {
		n, rerr := io.ReadFull(r, header[:])
		if rerr == io.EOF {
			return count, off, nil // clean end at a frame boundary
		}
		if rerr == io.ErrUnexpectedEOF {
			return torn("partial frame header")
		}
		if rerr != nil {
			return 0, 0, fmt.Errorf("wal: reading segment %s: %w", filepath.Base(path), rerr)
		}
		_ = n
		length := uint32(header[0]) | uint32(header[1])<<8 | uint32(header[2])<<16 | uint32(header[3])<<24
		sum := uint32(header[4]) | uint32(header[5])<<8 | uint32(header[6])<<16 | uint32(header[7])<<24
		if length > MaxRecordBytes {
			return torn(fmt.Sprintf("implausible record length %d", length))
		}
		if uint32(cap(buf)) < length {
			buf = make([]byte, length)
		}
		buf = buf[:length]
		if _, rerr := io.ReadFull(r, buf); rerr != nil {
			if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
				return torn("partial record payload")
			}
			return 0, 0, fmt.Errorf("wal: reading segment %s: %w", filepath.Base(path), rerr)
		}
		if crc32.Checksum(buf, crcTable) != sum {
			return torn("record checksum mismatch")
		}
		if fn != nil {
			if err := fn(firstLSN+uint64(count), buf); err != nil {
				return 0, 0, err
			}
		}
		count++
		off += frameHeader + int64(length)
	}
}

// faultReader interposes the wal.replay.read failpoint on segment reads.
type faultReader struct {
	r io.Reader
}

func (fr *faultReader) Read(p []byte) (int, error) {
	if f, ok := faultinject.Check("wal.replay.read"); ok {
		if f.Action == faultinject.ActSleep {
			f.Sleep()
		} else {
			return 0, f.Err()
		}
	}
	return fr.r.Read(p)
}

// openActive opens (or creates) the active segment for appending at
// l.size. create additionally fsyncs the directory so the new name
// survives a crash.
func (l *Log) openActive(name string, create bool) error {
	flags := os.O_WRONLY
	if create {
		flags |= os.O_CREATE | os.O_EXCL
	}
	f, err := os.OpenFile(filepath.Join(l.dir, name), flags, 0o644)
	if err != nil {
		return fmt.Errorf("wal: opening active segment: %w", err)
	}
	if _, err := f.Seek(l.size, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("wal: seeking active segment: %w", err)
	}
	if create {
		if err := syncDir(l.dir); err != nil {
			f.Close()
			return err
		}
	}
	l.f = f
	return nil
}

// syncDir fsyncs a directory so a segment created inside it is
// durable, honoring the wal.dir.sync failpoint.
func syncDir(dir string) error {
	if f, ok := faultinject.Check("wal.dir.sync"); ok {
		if f.Action == faultinject.ActSleep {
			f.Sleep()
		} else {
			return fmt.Errorf("wal: directory sync: %w", f.Err())
		}
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// NextLSN returns the LSN the next append will receive.
func (l *Log) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// Append writes one record and returns its LSN. Under SyncAlways the
// record is on stable storage when Append returns; under SyncBatch or
// SyncNever it is buffered in the OS until Sync or rotation.
//
// A failed write is rolled back by truncating the active segment to the
// pre-append offset, so the on-disk frame sequence stays clean; if even
// the rollback fails, the log is poisoned and every later call returns
// the sticky error (the caller must recover by reopening).
func (l *Log) Append(payload []byte) (uint64, error) {
	if len(payload) > MaxRecordBytes {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds MaxRecordBytes", len(payload))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usable(); err != nil {
		return 0, err
	}
	if l.size >= l.opt.SegmentBytes && l.size > 0 {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}

	var header [frameHeader]byte
	length := uint32(len(payload))
	sum := crc32.Checksum(payload, crcTable)
	header[0], header[1], header[2], header[3] = byte(length), byte(length>>8), byte(length>>16), byte(length>>24)
	header[4], header[5], header[6], header[7] = byte(sum), byte(sum>>8), byte(sum>>16), byte(sum>>24)

	w := &faultWriter{f: l.f}
	if _, err := w.Write(header[:]); err != nil {
		return 0, l.rollbackLocked(err)
	}
	if _, err := w.Write(payload); err != nil {
		return 0, l.rollbackLocked(err)
	}
	if l.opt.Sync == SyncAlways {
		if err := l.syncLocked(); err != nil {
			// The frame is complete on the file but not acked durable. It
			// must not stay: a later append would follow it and replay
			// would assign it this LSN, resurrecting an unacked record and
			// shifting every later LSN. Roll it back like a failed write.
			return 0, l.rollbackLocked(err)
		}
	}
	lsn := l.nextLSN
	l.nextLSN++
	l.size += frameHeader + int64(len(payload))
	return lsn, nil
}

// rollbackLocked undoes a partial append by truncating to the
// pre-append size. If the truncate fails the log is poisoned.
func (l *Log) rollbackLocked(cause error) error {
	if terr := l.f.Truncate(l.size); terr != nil {
		l.sticky = fmt.Errorf("wal: append failed (%v) and rollback failed: %w", cause, terr)
		return l.sticky
	}
	if _, serr := l.f.Seek(l.size, io.SeekStart); serr != nil {
		l.sticky = fmt.Errorf("wal: append failed (%v) and reseek failed: %w", cause, serr)
		return l.sticky
	}
	return fmt.Errorf("wal: append: %w", cause)
}

// usable guards the mutating entry points.
func (l *Log) usable() error {
	if l.closed {
		return ErrClosed
	}
	return l.sticky
}

// syncLocked fsyncs the active segment, honoring the wal.append.sync
// failpoint.
func (l *Log) syncLocked() error {
	if f, ok := faultinject.Check("wal.append.sync"); ok {
		if f.Action == faultinject.ActSleep {
			f.Sleep()
		} else {
			return fmt.Errorf("wal: sync: %w", f.Err())
		}
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	return nil
}

// Sync flushes the active segment to stable storage. The group-commit
// point under SyncBatch; a no-op risk-wise under SyncAlways.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usable(); err != nil {
		return err
	}
	return l.syncLocked()
}

// rotateLocked seals the active segment (fsync unless SyncNever — a
// sealed segment is immutable history and must not lose acked group
// commits) and opens a fresh one named by the next LSN. A failed fsync
// leaves the active segment as it was, for the next append to retry; a
// failure past it — the seal's close, or opening the fresh segment and
// making its name durable — leaves no segment to append to, and poisons
// the log at once.
func (l *Log) rotateLocked() error {
	if l.opt.Sync != SyncNever {
		if err := l.syncLocked(); err != nil {
			return err
		}
	}
	err := l.f.Close()
	l.f = nil
	l.size = 0
	if err != nil {
		err = fmt.Errorf("wal: sealing segment: %w", err)
	} else {
		err = l.openActive(segName(l.nextLSN), true)
	}
	if err != nil {
		l.sticky = fmt.Errorf("wal: rotation failed, reopen the log: %w", err)
		return l.sticky
	}
	return nil
}

// Close flushes (unless SyncNever) and closes the log. Further calls
// return ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.closed = true
	if l.f == nil {
		return nil
	}
	var err error
	if l.sticky == nil && l.opt.Sync != SyncNever {
		err = l.syncLocked()
	}
	if cerr := l.f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// faultWriter interposes the wal.append.write failpoint: ActError fails
// outright, ActShortWrite lets a prefix through and then fails — the
// torn-append simulation.
type faultWriter struct {
	f *os.File
}

func (fw *faultWriter) Write(p []byte) (int, error) {
	if f, ok := faultinject.Check("wal.append.write"); ok {
		switch f.Action {
		case faultinject.ActShortWrite:
			n := f.Bytes
			if n > len(p) {
				n = len(p)
			}
			m, _ := fw.f.Write(p[:n])
			return m, f.Err()
		case faultinject.ActSleep:
			f.Sleep()
		default:
			return 0, f.Err()
		}
	}
	return fw.f.Write(p)
}
