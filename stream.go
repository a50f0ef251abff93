package asrs

import (
	"fmt"
	"path/filepath"

	"asrs/internal/attr"
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
//   - The WAL is the only durable form of ingested objects: nothing
//     rewrites, renames or deletes what it holds.
//   - The WAL holds one schema record, the fingerprint of the schema
//     its objects are encoded under; NewEngine appends it to a log that
//     has none, and refuses a log whose fingerprint is another schema's.
//   - Recovery happens in NewEngine: it replays the WAL. A directory
//     an earlier build wrote may also hold an ingest snapshot
//     (ingest.snap, with its applied-LSN watermark inside); recovery
//     loads it first, skips the records at or below the watermark, and
//     refuses to start if the WAL has a gap after the watermark (a gap
//     would silently drop acknowledged writes). Nothing writes a
//     snapshot.

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
}

// initIngest recovers durable ingest state (an earlier build's
// snapshot, if any, then WAL replay) and opens the log for appending.
// Called by NewEngine when WALDir is set.
func (e *Engine) initIngest() error {
	dir := e.opt.Ingest.WALDir
	// ingest.snap is only ever read: builds that compacted the WAL left
	// it, and its objects precede the records above its watermark.
	staged, appliedLSN, err := persist.LoadIngestSnapshot(filepath.Join(dir, "ingest.snap"), e.ds.Schema)
	if err != nil {
		return fmt.Errorf("asrs: loading ingest snapshot: %w", err)
	}
	firstReplayed := uint64(0)
	tagged := false
	var arena []attr.Value // the replayed objects' values (persist.DecodeAppend)
	policy := e.opt.Ingest.Sync
	if policy == SyncBatch {
		policy = SyncAlways // one record per batch: Append's fsync is the batch's
	}
	l, err := wal.Open(dir, wal.Options{Sync: policy, SegmentBytes: e.opt.Ingest.SegmentBytes},
		func(lsn uint64, payload []byte) error {
			if firstReplayed == 0 {
				firstReplayed = lsn
			}
			if ok, err := persist.CheckSchemaRecord(e.ds.Schema, payload); ok {
				tagged = true
				return err
			}
			if lsn <= appliedLSN {
				return nil // already durable in the snapshot
			}
			var derr error
			staged, arena, derr = persist.DecodeAppend(staged, arena, e.ds.Schema, payload)
			return derr
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
	// A log without a schema record (a new directory, or one an earlier
	// build wrote) gets one now, so every later boot checks the schema.
	if !tagged {
		if _, err := l.Append(persist.EncodeSchemaRecord(e.ds.Schema)); err != nil {
			l.Close()
			return fmt.Errorf("asrs: writing the WAL's schema record: %w", err)
		}
	}
	e.wlog = l
	e.staged = staged
	e.stagedLen.Store(int64(len(staged)))
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
		if _, err := e.wlog.Append(persist.EncodeObjects(e.ds.Schema, objs)); err != nil {
			e.ingestMu.Unlock()
			return fmt.Errorf("asrs: insert: %w", err)
		}
	}
	for i := range objs {
		o := objs[i]
		o.Values = append([]Value(nil), o.Values...)
		e.staged = append(e.staged, o)
	}
	e.stagedLen.Store(int64(len(e.staged)))
	e.ingestMu.Unlock()

	e.nIngested.Add(int64(len(objs)))
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
