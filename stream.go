package asrs

import (
	"fmt"
	"path/filepath"

	"asrs/internal/attr"
	"asrs/internal/faultinject"
	"asrs/internal/persist"
	"asrs/internal/wal"
)

// Streaming ingest: Engine.Insert/InsertBatch append objects to the
// served corpus while queries keep running (DESIGN.md §10).
//
// The logical dataset is the seed corpus followed by every ingested
// object in append (LSN) order. An insert itself is O(delta): validate,
// append one WAL record (when durable), and stage the objects in memory.
// The first query after an insert pays for the new epoch: it
// materializes a fresh immutable view — one copy of the object array
// plus the epoch's geometry and per-composite index and pyramid caches.
// The geometry is the previous epoch's with the appended tail folded in
// once (dssearch.FoldGeometry: the tail sorted on its own and merged into
// the master order), and each composite's pyramid is the previous
// epoch's with the tail's rows flattened, certified and spliced in on it
// (dssearch.FoldPyramid). That is O(d log n) work plus a few linear
// copies — no sort, flatten or certificate pass over the n old objects
// unless the tail moves the certificate — and bit-identical to a
// from-scratch rebuild.
// Queries in flight keep their captured view;
// they answer against the epoch that was current when they arrived.
//
// Durability (IngestOptions.WALDir set):
//
//   - Every InsertBatch appends one checksummed WAL record and is
//     acknowledged per the sync policy: SyncAlways and SyncBatch fsync
//     that record before the ack (no acknowledged insert is ever lost,
//     and a batch whose fsync failed is rolled back, so it never comes
//     back either), SyncNever leaves flushing to the OS (a crash may
//     lose the tail; replay still never yields a torn or reordered
//     state).
//   - Background compaction folds the staged objects into an ingest
//     snapshot (persist.SaveIngestSnapshot: temp + fsync + rename, the
//     applied-LSN watermark INSIDE the file) and only then truncates
//     the WAL below the watermark. A crash at any instant — mid-append,
//     mid-snapshot, between rename and truncate — recovers to
//     seed ++ snapshot ++ replay(lsn > watermark): every acknowledged
//     insert survives, none is applied twice.
//   - Recovery happens in NewEngine: it loads the snapshot, replays the
//     WAL, and refuses to start if the WAL has been truncated past the
//     snapshot's watermark (a gap would silently drop acknowledged
//     writes).

// WAL sync policies, re-exported for EngineOptions.
type SyncPolicy = wal.SyncPolicy

const (
	// SyncAlways fsyncs every WAL append before acknowledging it.
	SyncAlways = wal.SyncAlways
	// SyncBatch fsyncs once per InsertBatch. A batch is one WAL record,
	// so this is SyncAlways.
	SyncBatch = wal.SyncBatch
	// SyncNever never fsyncs the WAL (the OS flushes eventually).
	SyncNever = wal.SyncNever
)

// ParseSyncPolicy parses "always", "batch" or "never".
func ParseSyncPolicy(s string) (SyncPolicy, error) { return wal.ParseSyncPolicy(s) }

// ErrEngineClosed reports an insert against a closed engine.
var ErrEngineClosed = fmt.Errorf("asrs: engine closed")

// IngestOptions configures streaming ingest.
type IngestOptions struct {
	// WALDir, when non-empty, makes ingest durable: inserts are
	// write-ahead logged under this directory and replayed by NewEngine
	// after a crash. Empty means memory-only ingest (Insert works,
	// nothing survives a restart).
	WALDir string
	// Sync is the WAL sync policy (default SyncAlways).
	Sync SyncPolicy
	// SegmentBytes caps one WAL segment before rotation
	// (default wal.DefaultSegmentBytes).
	SegmentBytes int64
	// CompactAt triggers background compaction once this many staged
	// objects are not yet covered by the ingest snapshot. 0 selects the
	// default (8192); negative disables automatic compaction (explicit
	// Compact calls still work).
	CompactAt int
}

// defaultCompactAt is the automatic compaction threshold when
// IngestOptions.CompactAt is zero.
const defaultCompactAt = 8192

// ingestSnapName is the snapshot file inside WALDir.
const ingestSnapName = "ingest.snap"

func (e *Engine) snapPath() string {
	return filepath.Join(e.opt.Ingest.WALDir, ingestSnapName)
}

func (e *Engine) compactAt() int {
	if e.opt.Ingest.CompactAt == 0 {
		return defaultCompactAt
	}
	return e.opt.Ingest.CompactAt
}

// initIngest recovers durable ingest state (snapshot + WAL replay) and
// opens the log for appending. Called by NewEngine when WALDir is set.
func (e *Engine) initIngest() error {
	dir := e.opt.Ingest.WALDir
	staged, appliedLSN, err := persist.LoadIngestSnapshot(e.snapPath(), e.ds.Schema)
	if err != nil {
		return fmt.Errorf("asrs: loading ingest snapshot: %w", err)
	}
	snapObjs := len(staged) // the snapshot's own objects; replay only appends after them
	firstReplayed := uint64(0)
	policy := e.opt.Ingest.Sync
	if policy == SyncBatch {
		policy = SyncAlways // one record per batch: Append's fsync is the batch's
	}
	l, err := wal.Open(dir, wal.Options{Sync: policy, SegmentBytes: e.opt.Ingest.SegmentBytes},
		func(lsn uint64, payload []byte) error {
			if firstReplayed == 0 {
				firstReplayed = lsn
			}
			if lsn <= appliedLSN {
				return nil // already durable in the snapshot
			}
			objs, derr := persist.DecodeObjects(e.ds.Schema, payload)
			if derr != nil {
				return derr
			}
			staged = append(staged, objs...)
			return nil
		})
	if err != nil {
		return fmt.Errorf("asrs: replaying ingest WAL: %w", err)
	}
	// Epoch views fold staged objects unchecked, as InsertBatch validated
	// them; a log written by a build that admitted more must not reach a
	// view.
	if err := (&attr.Dataset{Schema: e.ds.Schema, Objects: staged}).Validate(); err != nil {
		l.Close()
		return fmt.Errorf("asrs: recovered ingest: %w", err)
	}
	// Gap checks: a WAL truncated past the snapshot watermark (or reset
	// underneath it) has dropped acknowledged inserts; starting anyway
	// would silently serve a hole.
	if firstReplayed > appliedLSN+1 {
		l.Close()
		return fmt.Errorf("asrs: ingest WAL starts at LSN %d but the snapshot covers only through %d: acknowledged inserts are missing", firstReplayed, appliedLSN)
	}
	if next := l.NextLSN(); next <= appliedLSN {
		l.Close()
		return fmt.Errorf("asrs: ingest WAL next LSN %d is behind the snapshot watermark %d: the log was reset underneath the snapshot", next, appliedLSN)
	}
	e.wlog = l
	e.staged = staged
	e.stagedLen.Store(int64(len(staged)))
	e.lastLSN = l.NextLSN() - 1
	e.snapCount = snapObjs
	e.snapLSN = appliedLSN
	e.nIngested.Store(int64(len(staged)))
	return nil
}

// Insert appends one object to the served corpus. See InsertBatch.
func (e *Engine) Insert(obj Object) error {
	return e.InsertBatch([]Object{obj})
}

// InsertBatch appends a batch of objects to the served corpus as one
// atomic, durable unit: the whole batch is one WAL record, acknowledged
// only after it is staged (and synced, per the policy). The objects are
// validated against the engine's schema and deep-copied; the caller may
// reuse the slice. Inserted objects become visible to queries issued
// after InsertBatch returns — the next query materializes a fresh epoch
// folding them in — and answers are bit-identical to an engine built
// over the combined corpus from scratch.
func (e *Engine) InsertBatch(objs []Object) error {
	if len(objs) == 0 {
		return nil
	}
	probe := &attr.Dataset{Schema: e.ds.Schema, Objects: objs}
	if err := probe.Validate(); err != nil {
		return fmt.Errorf("asrs: insert: %w", err)
	}

	e.ingestMu.Lock()
	if e.ingestClosed {
		e.ingestMu.Unlock()
		return ErrEngineClosed
	}
	if e.wlog != nil {
		payload := persist.EncodeObjects(e.ds.Schema, objs)
		lsn, err := e.wlog.Append(payload)
		if err != nil {
			e.ingestMu.Unlock()
			return fmt.Errorf("asrs: insert: %w", err)
		}
		e.lastLSN = lsn
	}
	for i := range objs {
		o := objs[i]
		o.Values = append([]Value(nil), o.Values...)
		e.staged = append(e.staged, o)
	}
	pending := len(e.staged) - e.snapCount
	e.stagedLen.Store(int64(len(e.staged)))
	e.ingestMu.Unlock()

	e.nIngested.Add(int64(len(objs)))
	if e.wlog != nil && e.compactAt() > 0 && pending >= e.compactAt() {
		e.compactAsync()
	}
	return nil
}

// IngestedObjects returns a copy of every object ingested since the
// seed corpus, in insertion (LSN) order. The engine's logical dataset
// is Dataset().Objects ++ IngestedObjects().
func (e *Engine) IngestedObjects() []Object {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	out := make([]Object, len(e.staged))
	copy(out, e.staged)
	return out
}

// compactAsync runs one compaction in the background, coalescing
// concurrent triggers. Errors are counted (Stats) and retried at the
// next trigger.
func (e *Engine) compactAsync() {
	if !e.compacting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer e.compacting.Store(false)
		if err := e.Compact(); err != nil {
			e.nCompactErrs.Add(1)
		}
	}()
}

// Compact folds the staged objects into the durable ingest snapshot and
// truncates the WAL below the snapshot's watermark. The snapshot rename
// is the single commit point: a crash before it leaves the previous
// snapshot + full WAL (replay recovers everything), a crash after it
// but before the truncation leaves an over-long WAL whose already-
// covered records replay as no-ops. Safe to call concurrently with
// inserts and queries; a no-op when nothing new is staged or the engine
// is not durable.
func (e *Engine) Compact() error {
	if e.wlog == nil {
		return nil
	}
	e.ingestMu.Lock()
	if e.ingestClosed {
		e.ingestMu.Unlock()
		return ErrEngineClosed
	}
	k := len(e.staged)
	lsn := e.lastLSN
	prevCount, prevLSN := e.snapCount, e.snapLSN
	staged := e.staged[:k:k]
	e.ingestMu.Unlock()
	if k == prevCount && lsn == prevLSN {
		return nil
	}

	// (k, lsn) is a consistent pair — both were advanced under ingestMu
	// by the same inserts — and staged[:k] is stable: the slice only
	// ever grows by append.
	if err := persist.SaveIngestSnapshot(e.snapPath(), e.ds.Schema, staged, lsn); err != nil {
		return fmt.Errorf("asrs: compacting ingest: %w", err)
	}
	if f, ok := faultinject.Check("compact.truncate"); ok {
		if f.Action == faultinject.ActSleep {
			f.Sleep()
		} else {
			return f.Err()
		}
	}
	if err := e.wlog.TruncateBefore(lsn + 1); err != nil {
		return fmt.Errorf("asrs: truncating ingest WAL: %w", err)
	}
	e.ingestMu.Lock()
	if k > e.snapCount {
		e.snapCount = k
	}
	if lsn > e.snapLSN {
		e.snapLSN = lsn
	}
	e.ingestMu.Unlock()
	e.nCompactions.Add(1)
	return nil
}

// Close ends ingest: it rejects further inserts and closes the WAL
// (syncing per the policy). Queries keep working against the last
// epoch. Idempotent.
func (e *Engine) Close() error {
	e.ingestMu.Lock()
	if e.ingestClosed {
		e.ingestMu.Unlock()
		return nil
	}
	e.ingestClosed = true
	w := e.wlog
	e.ingestMu.Unlock()
	if w != nil {
		return w.Close()
	}
	return nil
}
