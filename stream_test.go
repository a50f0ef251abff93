package asrs_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"asrs"
	"asrs/internal/dataset"
	"asrs/internal/persist"
	"asrs/internal/wal"
)

// streamFixture splits the batch fixture's corpus into a seed prefix and
// an insert tail, keeping the full-corpus requests (their targets were
// compiled against the combined corpus, so both the ingesting engine and
// the rebuilt-from-scratch oracle engine answer the same question).
func streamFixture(t *testing.T, nQueries int, seed int64, tail int) (*asrs.Dataset, *asrs.Dataset, []asrs.Object, []asrs.QueryRequest) {
	t.Helper()
	full, _, reqs := batchFixture(t, nQueries, seed)
	n := len(full.Objects)
	if tail >= n {
		t.Fatalf("tail %d >= corpus %d", tail, n)
	}
	seedDS := &asrs.Dataset{Schema: full.Schema, Objects: full.Objects[:n-tail]}
	return full, seedDS, full.Objects[n-tail:], reqs
}

func objectsEqual(t *testing.T, tag string, a, b []asrs.Object) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d objects != %d", tag, len(a), len(b))
	}
	for i := range a {
		if a[i].Loc != b[i].Loc || len(a[i].Values) != len(b[i].Values) {
			t.Fatalf("%s: object %d differs: %+v vs %+v", tag, i, a[i], b[i])
		}
		for j := range a[i].Values {
			av, bv := a[i].Values[j], b[i].Values[j]
			if av.Cat != bv.Cat || math.Float64bits(av.Num) != math.Float64bits(bv.Num) {
				t.Fatalf("%s: object %d value %d differs: %+v vs %+v", tag, i, j, av, bv)
			}
		}
	}
}

// TestInsertBitIdenticalToRebuild is the streaming-ingest acceptance
// property: an engine that grew from a seed corpus through
// Insert/InsertBatch answers every request bit-identically to an engine
// built over the combined corpus from scratch — at every worker count
// and batch parallelism, through single queries and batches alike. The ingesting engine's pyramid is produced by the
// delta fold (the corpus has unique anchors), which the test asserts
// actually happened.
func TestInsertBitIdenticalToRebuild(t *testing.T) {
	full, seedDS, inserts, reqs := streamFixture(t, 12, 71, 180)
	configs := []struct {
		tag string
		opt asrs.EngineOptions
	}{
		{"w1", asrs.EngineOptions{BatchParallelism: 1, Search: asrs.Options{Workers: 1}}},
		{"w2-par2", asrs.EngineOptions{BatchParallelism: 2, Search: asrs.Options{Workers: 2}}},
		{"indexed", asrs.EngineOptions{IndexGranularity: 24, BatchParallelism: 1, Search: asrs.Options{Workers: 1}}},
	}
	for _, cfg := range configs {
		oracle, err := asrs.NewEngine(full, cfg.opt)
		if err != nil {
			t.Fatal(err)
		}
		grown, err := asrs.NewEngine(seedDS, cfg.opt)
		if err != nil {
			t.Fatal(err)
		}
		// Query once against the seed epoch so the later epoch has a
		// completed pyramid to fold (the interesting path), then grow:
		// a few single inserts, the rest in one batch.
		_ = grown.Query(reqs[0])
		for i := 0; i < 3; i++ {
			if err := grown.Insert(inserts[i]); err != nil {
				t.Fatalf("%s: insert %d: %v", cfg.tag, i, err)
			}
		}
		if err := grown.InsertBatch(inserts[3:]); err != nil {
			t.Fatalf("%s: insert batch: %v", cfg.tag, err)
		}

		want := oracle.QueryBatch(reqs)
		got := grown.QueryBatch(reqs)
		for i := range want {
			if want[i].Err != nil || got[i].Err != nil {
				t.Fatalf("%s: request %d errored: oracle %v, grown %v", cfg.tag, i, want[i].Err, got[i].Err)
			}
			respEqual(t, cfg.tag+"/batch", i, got[i], want[i])
		}
		for i := range reqs {
			respEqual(t, cfg.tag+"/single", i, grown.Query(reqs[i]), oracle.Query(reqs[i]))
		}
		st := grown.Stats()
		if st.Ingested != int64(len(inserts)) {
			t.Fatalf("%s: Stats.Ingested = %d, want %d", cfg.tag, st.Ingested, len(inserts))
		}
		if st.PyramidFolds == 0 {
			t.Fatalf("%s: pyramid was never delta-folded (unique-anchor corpus should fold)", cfg.tag)
		}
	}
}

// TestInsertVisibleMidStream: each insert becomes visible to the next
// query, and every intermediate epoch answers exactly like a fresh
// engine over the same prefix.
func TestInsertVisibleMidStream(t *testing.T) {
	full, seedDS, inserts, reqs := streamFixture(t, 4, 99, 60)
	grown, err := asrs.NewEngine(seedDS, asrs.EngineOptions{Search: asrs.Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step <= len(inserts); step += 20 {
		prefix := &asrs.Dataset{Schema: full.Schema, Objects: full.Objects[:len(seedDS.Objects)+step]}
		oracle, err := asrs.NewEngine(prefix, asrs.EngineOptions{Search: asrs.Options{Workers: 1}})
		if err != nil {
			t.Fatal(err)
		}
		for i := range reqs {
			respEqual(t, "mid-stream", i, grown.Query(reqs[i]), oracle.Query(reqs[i]))
		}
		if step < len(inserts) {
			end := step + 20
			if end > len(inserts) {
				end = len(inserts)
			}
			if err := grown.InsertBatch(inserts[step:end]); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestInsertValidationAndClose: schema-violating inserts are refused
// without staging anything, empty batches are no-ops, and a closed
// engine rejects inserts while still answering queries.
func TestInsertValidationAndClose(t *testing.T) {
	_, seedDS, inserts, reqs := streamFixture(t, 2, 5, 10)
	eng, err := asrs.NewEngine(seedDS, asrs.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bad := inserts[0]
	bad.Values = nil // wrong arity
	if err := eng.Insert(bad); err == nil {
		t.Fatal("schema-violating insert accepted")
	}
	bad = inserts[0]
	bad.Values = []asrs.Value{{Cat: 1 << 20}} // outside the categorical domain
	if err := eng.Insert(bad); err == nil {
		t.Fatal("out-of-domain insert accepted")
	}
	if err := eng.InsertBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if got := len(eng.IngestedObjects()); got != 0 {
		t.Fatalf("%d objects staged by refused/empty inserts", got)
	}
	if err := eng.Insert(inserts[0]); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := eng.Insert(inserts[1]); !errors.Is(err, asrs.ErrEngineClosed) {
		t.Fatalf("insert after close: %v, want ErrEngineClosed", err)
	}
	if resp := eng.Query(reqs[0]); resp.Err != nil {
		t.Fatalf("query after close: %v", resp.Err)
	}
}

// TestIngestDurableRecovery: acknowledged inserts survive an abrupt stop
// (the engine is abandoned, never closed) and a reopened engine answers
// bit-identically to a fresh engine over the combined corpus — through
// a restart, and through a second one after more inserts.
func TestIngestDurableRecovery(t *testing.T) {
	full, seedDS, inserts, reqs := streamFixture(t, 6, 123, 90)
	dir := t.TempDir()
	ing := asrs.IngestOptions{WALDir: dir, Sync: asrs.SyncAlways}
	opt := asrs.EngineOptions{Ingest: ing, Search: asrs.Options{Workers: 1}}

	eng, err := asrs.NewEngine(seedDS, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.InsertBatch(inserts[:30]); err != nil {
		t.Fatal(err)
	}
	for _, o := range inserts[30:40] {
		if err := eng.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	// Abandon without Close: a crash. The WAL must carry everything.
	eng = nil

	re1, err := asrs.NewEngine(seedDS, opt)
	if err != nil {
		t.Fatalf("recovery 1: %v", err)
	}
	objectsEqual(t, "recovery-1", re1.IngestedObjects(), inserts[:40])

	// Insert a tail after the recovered records, crash again: recovery
	// must replay both.
	if err := re1.InsertBatch(inserts[40:70]); err != nil {
		t.Fatal(err)
	}
	re1 = nil

	re2, err := asrs.NewEngine(seedDS, opt)
	if err != nil {
		t.Fatalf("recovery 2: %v", err)
	}
	objectsEqual(t, "recovery-2", re2.IngestedObjects(), inserts[:70])

	combined := &asrs.Dataset{Schema: full.Schema, Objects: full.Objects[:len(seedDS.Objects)+70]}
	oracle, err := asrs.NewEngine(combined, asrs.EngineOptions{Search: asrs.Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		respEqual(t, "post-recovery", i, re2.Query(reqs[i]), oracle.Query(reqs[i]))
	}
	if err := re2.Close(); err != nil {
		t.Fatal(err)
	}

	// A reopen with a foreign seed schema must refuse the WAL rather
	// than serve garbage.
	foreign := asrs.MustSchema(
		asrs.Attribute{Name: "kind", Kind: asrs.Categorical, Domain: []string{"x", "y"}},
		asrs.Attribute{Name: "score", Kind: asrs.Numeric},
	)
	other := &asrs.Dataset{Schema: foreign, Objects: []asrs.Object{
		{Loc: asrs.Point{X: 1, Y: 2}, Values: []asrs.Value{{Cat: 0}, {Num: 3}}},
	}}
	if _, err := asrs.NewEngine(other, opt); err == nil {
		t.Fatal("recovery accepted a different schema's WAL")
	}
}

// TestIngestRefusesAnotherSchema: a WAL's object records hold bare
// categorical domain indexes, so a boot under a schema of the same shape
// with a reordered or renamed domain, or a renamed attribute, would
// replay "red" as "blue". The log's schema record refuses each such boot
// with persist.ErrMismatch. A log an earlier build wrote holds no schema
// record; the first boot adds one, and every boot after it is checked.
// A refused boot leaves the log as it was: the original schema still
// recovers the insert.
func TestIngestRefusesAnotherSchema(t *testing.T) {
	schemaOf := func(name string, domain ...string) *asrs.Dataset {
		s := asrs.MustSchema(
			asrs.Attribute{Name: name, Kind: asrs.Categorical, Domain: domain},
			asrs.Attribute{Name: "score", Kind: asrs.Numeric},
		)
		return &asrs.Dataset{Schema: s, Objects: []asrs.Object{
			{Loc: asrs.Point{X: 0, Y: 0}, Values: []asrs.Value{{Cat: 1}, {Num: 1}}},
		}}
	}
	orig := schemaOf("cat", "red", "blue")
	others := []struct {
		name string
		ds   *asrs.Dataset
	}{
		{"reordered domain", schemaOf("cat", "blue", "red")},
		{"renamed label", schemaOf("cat", "red", "green")},
		{"renamed attribute", schemaOf("color", "red", "blue")},
	}
	red := []asrs.Object{{Loc: asrs.Point{X: 1, Y: 2}, Values: []asrs.Value{{Cat: 0}, {Num: 3}}}}
	for _, earlier := range []bool{false, true} {
		dir := t.TempDir()
		opt := asrs.EngineOptions{Ingest: asrs.IngestOptions{WALDir: dir}}
		if earlier {
			l, err := wal.Open(dir, wal.Options{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := l.Append(persist.EncodeObjects(orig.Schema, red)); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		}
		eng, err := asrs.NewEngine(orig, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !earlier {
			if err := eng.InsertBatch(red); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		for _, o := range others {
			eng, err := asrs.NewEngine(o.ds, opt)
			if !errors.Is(err, persist.ErrMismatch) {
				if err == nil {
					eng.Close()
				}
				t.Fatalf("earlier build %v, %s: boot returned %v, want persist.ErrMismatch", earlier, o.name, err)
			}
		}
		eng, err = asrs.NewEngine(orig, opt)
		if err != nil {
			t.Fatal(err)
		}
		objectsEqual(t, fmt.Sprintf("earlier build %v", earlier), eng.IngestedObjects(), red)
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIngestWALIsTheOnlyFile: the WAL is the only durable form of
// ingested objects. 65 batches of 128 objects — 8 320, more than the
// 8 192 staged objects at which ingest once folded the WAL into a
// snapshot — then a query and Close leave a directory of wal-*.seg
// files alone, holding the log's schema record and each batch's record
// once: 8 framing bytes plus the payload each.
func TestIngestWALIsTheOnlyFile(t *testing.T) {
	ds := dataset.Random(200, 100, 3)
	extra := dataset.Random(65*128, 100, 4).Objects
	f, err := asrs.NewComposite(ds.Schema, asrs.AggSpec{Kind: asrs.Distribution, Attr: "cat"})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	eng, err := asrs.NewEngine(ds, asrs.EngineOptions{Ingest: asrs.IngestOptions{WALDir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	want := 8 + int64(len(persist.EncodeSchemaRecord(ds.Schema)))
	for i := 0; i < len(extra); i += 128 {
		batch := extra[i : i+128]
		if err := eng.InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
		want += 8 + int64(len(persist.EncodeObjects(ds.Schema, batch)))
	}
	req := asrs.QueryRequest{Query: asrs.Query{F: f, Target: []float64{2, 1, 2}}, A: 8, B: 8}
	if resp := eng.Query(req); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if st := eng.Stats(); st.Compactions != 0 || st.CompactionErrors != 0 {
		t.Fatalf("Stats reports %d compactions and %d compaction errors; nothing compacts", st.Compactions, st.CompactionErrors)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got int64
	for _, e := range ents {
		if ok, _ := filepath.Match("wal-*.seg", e.Name()); !ok {
			t.Fatalf("WAL directory holds %q beside its segments", e.Name())
		}
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		got += info.Size()
	}
	if got != want {
		t.Fatalf("segments hold %d bytes, want %d: each record once", got, want)
	}
}

// earlierBuildDir writes the state directory a build that compacted its
// WAL would have left: records of 10 objects each through LSN w+m in a
// WAL of small segments, and an ingest snapshot of the first w records
// at watermark w. With truncated set, the sealed segments holding only
// records at or below w are deleted, as that build's truncation did.
func earlierBuildDir(t *testing.T, schema *asrs.Schema, objs []asrs.Object, w int, truncated bool) string {
	t.Helper()
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{SegmentBytes: 256}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(objs); i += 10 {
		if _, err := l.Append(persist.EncodeObjects(schema, objs[i:i+10])); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := persist.SaveIngestSnapshot(filepath.Join(dir, "ingest.snap"), schema, objs[:10*w], uint64(w)); err != nil {
		t.Fatal(err)
	}
	if truncated {
		segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
		if err != nil {
			t.Fatal(err)
		}
		removed := 0
		for i := 0; i+1 < len(segs); i++ {
			var next uint64
			if _, err := fmt.Sscanf(filepath.Base(segs[i+1]), "wal-%016x.seg", &next); err != nil {
				t.Fatal(err)
			}
			if next > uint64(w)+1 {
				break
			}
			if err := os.Remove(segs[i]); err != nil {
				t.Fatal(err)
			}
			removed++
		}
		if removed == 0 {
			t.Fatal("no sealed segment lies wholly at or below the watermark")
		}
	}
	return dir
}

// TestIngestRecoversEarlierSnapshot: a state directory left by a build
// that compacted its WAL — an ingest snapshot at watermark W beside a
// WAL holding records 1…W+m, whole or with the segments below W+1
// deleted — boots to exactly seed ++ snapshot ++ records W+1…W+m, and
// answers like a fresh engine over that corpus. Later inserts go to the
// WAL alone: the snapshot stays byte-identical, and the next boot
// recovers them after it.
func TestIngestRecoversEarlierSnapshot(t *testing.T) {
	full, seedDS, inserts, reqs := streamFixture(t, 4, 77, 90)
	const w, m = 5, 2 // records of 10 objects
	for _, truncated := range []bool{false, true} {
		t.Run(fmt.Sprintf("truncated=%v", truncated), func(t *testing.T) {
			dir := earlierBuildDir(t, full.Schema, inserts[:10*(w+m)], w, truncated)
			snapPath := filepath.Join(dir, "ingest.snap")
			snap, err := os.ReadFile(snapPath)
			if err != nil {
				t.Fatal(err)
			}
			opt := asrs.EngineOptions{Ingest: asrs.IngestOptions{WALDir: dir, SegmentBytes: 256}}
			eng, err := asrs.NewEngine(seedDS, opt)
			if err != nil {
				t.Fatal(err)
			}
			objectsEqual(t, "boot", eng.IngestedObjects(), inserts[:10*(w+m)])
			if err := eng.InsertBatch(inserts[10*(w+m):]); err != nil {
				t.Fatal(err)
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			if after, err := os.ReadFile(snapPath); err != nil || !bytes.Equal(after, snap) {
				t.Fatalf("inserts rewrote the snapshot (err %v)", err)
			}

			again, err := asrs.NewEngine(seedDS, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer again.Close()
			objectsEqual(t, "reboot", again.IngestedObjects(), inserts)
			oracle, err := asrs.NewEngine(full, asrs.EngineOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for i := range reqs {
				respEqual(t, "reboot", i, again.Query(reqs[i]), oracle.Query(reqs[i]))
			}
		})
	}
}

// TestIngestRecoveredSnapshotAfterWALGap: a WAL reset underneath an
// earlier build's snapshot watermark (dropping acknowledged records)
// must refuse to boot instead of silently serving a hole.
func TestIngestRecoveredSnapshotAfterWALGap(t *testing.T) {
	_, seedDS, inserts, _ := streamFixture(t, 2, 7, 30)
	dir := earlierBuildDir(t, seedDS.Schema, inserts[:20], 1, false)
	opt := asrs.EngineOptions{Ingest: asrs.IngestOptions{WALDir: dir}}
	// Simulate the forbidden state: wipe the WAL but keep the snapshot,
	// so the re-created log's LSNs restart below the watermark.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		if err := os.Remove(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := asrs.NewEngine(seedDS, opt); err == nil {
		t.Fatal("boot accepted a WAL reset underneath the snapshot watermark")
	}
}

// TestDeltaFoldRacesQueries pins the delta fold-in under the race
// detector: one goroutine drives insert→query pairs so nearly every
// query materializes a fresh epoch and folds the tail into the previous
// pyramid, while another loops queries over whatever epoch is current
// until the inserter finishes. Stats must show the fold actually ran,
// and the settled engine answers bit-identically to a rebuild.
func TestDeltaFoldRacesQueries(t *testing.T) {
	full, seedDS, inserts, reqs := streamFixture(t, 4, 57, 120)
	eng, err := asrs.NewEngine(seedDS, asrs.EngineOptions{
		Ingest: asrs.IngestOptions{WALDir: t.TempDir(), Sync: asrs.SyncNever},
		Search: asrs.Options{Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Establish the base pyramid so the first post-insert epoch folds.
	if resp := eng.Query(reqs[0]); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	done := make(chan struct{})
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < len(inserts); i += 4 {
			end := i + 4
			if end > len(inserts) {
				end = len(inserts)
			}
			if err := eng.InsertBatch(inserts[i:end]); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			if resp := eng.Query(reqs[i%len(reqs)]); resp.Err != nil {
				t.Errorf("query: %v", resp.Err)
				return
			}
		}
	}()
	go func() {
		// Query until the inserter finishes, so reads overlap every fold.
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if resp := eng.Query(reqs[i%len(reqs)]); resp.Err != nil {
				t.Errorf("query: %v", resp.Err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	if st := eng.Stats(); st.PyramidFolds == 0 {
		t.Fatal("no epoch folded its pyramid: the fold never raced the queries")
	}
	combined := &asrs.Dataset{Schema: full.Schema, Objects: append(append([]asrs.Object(nil), seedDS.Objects...), inserts...)}
	oracle, err := asrs.NewEngine(combined, asrs.EngineOptions{Search: asrs.Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		respEqual(t, "fold-vs-query", i, eng.Query(reqs[i]), oracle.Query(reqs[i]))
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentInsertQuery hammers inserts, queries and batches
// concurrently (run with -race), then checks the settled engine answers
// bit-identically to a fresh engine over exactly the objects it
// acknowledged.
func TestConcurrentInsertQuery(t *testing.T) {
	full, seedDS, inserts, reqs := streamFixture(t, 4, 31, 120)
	dir := t.TempDir()
	eng, err := asrs.NewEngine(seedDS, asrs.EngineOptions{
		Ingest:           asrs.IngestOptions{WALDir: dir, Sync: asrs.SyncNever},
		BatchParallelism: 2,
		Search:           asrs.Options{Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < len(inserts); i += 8 {
			end := i + 8
			if end > len(inserts) {
				end = len(inserts)
			}
			if err := eng.InsertBatch(inserts[i:end]); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			if resp := eng.Query(reqs[i%len(reqs)]); resp.Err != nil {
				t.Errorf("query: %v", resp.Err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			eng.QueryBatch(reqs)
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	got := eng.IngestedObjects()
	objectsEqual(t, "settled", got, inserts)
	combined := &asrs.Dataset{Schema: full.Schema, Objects: append(append([]asrs.Object(nil), seedDS.Objects...), got...)}
	oracle, err := asrs.NewEngine(combined, asrs.EngineOptions{Search: asrs.Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		respEqual(t, "settled", i, eng.Query(reqs[i]), oracle.Query(reqs[i]))
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPyramidFoldStats: Stats tells folds from rebuilds, by count and by
// time. The first pyramid is a full build; inserts are folded into it,
// their time counted as fold time; an insert carrying a value no limb
// holds (a denormal) is refused whole and changes nothing — and answers
// stay those of a fresh engine throughout.
func TestPyramidFoldStats(t *testing.T) {
	full := dataset.Random(260, 100, 3)
	for i := range full.Objects {
		full.Objects[i].Values[1].Num = math.Round(full.Objects[i].Values[1].Num)
	}
	f, err := asrs.NewComposite(full.Schema,
		asrs.AggSpec{Kind: asrs.Distribution, Attr: "cat"},
		asrs.AggSpec{Kind: asrs.Sum, Attr: "val"},
	)
	if err != nil {
		t.Fatal(err)
	}
	req := asrs.QueryRequest{Query: asrs.Query{F: f, Target: []float64{2, 1, 2, 6}}, A: 7, B: 6}
	eng, err := asrs.NewEngine(&asrs.Dataset{Schema: full.Schema, Objects: full.Objects[:200]},
		asrs.EngineOptions{Search: asrs.Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	check := func(tag string, n int, folds, fallbacks int64) asrs.EngineStats {
		t.Helper()
		oracle, err := asrs.NewEngine(&asrs.Dataset{Schema: full.Schema, Objects: full.Objects[:n]},
			asrs.EngineOptions{Search: asrs.Options{Workers: 1}})
		if err != nil {
			t.Fatal(err)
		}
		respEqual(t, tag, 0, eng.Query(req), oracle.Query(req))
		st := eng.Stats()
		if st.PyramidFolds != folds || st.PyramidFoldFallbacks != fallbacks ||
			(st.PyramidFoldMs > 0) != (folds > 0) || !(st.PyramidRebuildMs > 0) {
			t.Fatalf("%s: folds=%d fallbacks=%d fold_ms=%g rebuild_ms=%g, want %d folds and %d fallbacks",
				tag, st.PyramidFolds, st.PyramidFoldFallbacks, st.PyramidFoldMs, st.PyramidRebuildMs, folds, fallbacks)
		}
		return st
	}
	check("seed", 200, 0, 0)
	if err := eng.InsertBatch(full.Objects[200:240]); err != nil {
		t.Fatal(err)
	}
	before := check("folded", 240, 1, 0)
	v := full.Objects[240].Values[1].Num
	full.Objects[240].Values[1].Num = 5e-324
	if err := eng.InsertBatch(full.Objects[240:260]); !errors.Is(err, asrs.ErrInvalidObject) {
		t.Fatalf("a denormal insert: err = %v, want ErrInvalidObject", err)
	}
	check("refused", 240, 1, 0)
	full.Objects[240].Values[1].Num = v
	if err := eng.InsertBatch(full.Objects[240:260]); err != nil {
		t.Fatal(err)
	}
	after := check("folded again", 260, 2, 0)
	if !(after.PyramidFoldMs > before.PyramidFoldMs) || after.PyramidRebuildMs != before.PyramidRebuildMs {
		t.Fatalf("fold time went to the wrong counter: before %+v, after %+v", before, after)
	}
}

// TestRecoveryRefusesInadmissibleObjects: a WAL record holding an object
// Validate refuses — here a denormal, which logs written before such
// values were refused may hold — makes recovery fail, naming the value,
// instead of staging an object no epoch's pyramid could sum.
func TestRecoveryRefusesInadmissibleObjects(t *testing.T) {
	ds := dataset.Random(40, 50, 5)
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{}, func(uint64, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	obj := asrs.Object{Loc: asrs.Point{X: 1, Y: 2}, Values: []asrs.Value{{Cat: 0}, {Num: 5e-324}}}
	if _, err := l.Append(persist.EncodeObjects(ds.Schema, []asrs.Object{obj})); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = asrs.NewEngine(ds, asrs.EngineOptions{Ingest: asrs.IngestOptions{WALDir: dir}})
	if !errors.Is(err, asrs.ErrInvalidObject) {
		t.Fatalf("recovery over a denormal: err = %v, want ErrInvalidObject", err)
	}
}

// TestCompositesShareGeometry: a Singapore engine serving two composites
// holds one geometry — the master order — per epoch, and lays both
// composites' pyramids on it: the seed epoch's is sorted once, the next
// epoch's folded once from it, whichever composite asks first. Every answer through either pyramid is Float64bits-equal to
// the answer through a standalone BuildPyramid of that epoch's corpus.
// The inserts include an object at an existing location, so the fold has
// a tie to place.
func TestCompositesShareGeometry(t *testing.T) {
	ds := dataset.SingaporeScaled(3000, 42)
	category, err1 := asrs.NewComposite(ds.Schema, asrs.AggSpec{Kind: asrs.Distribution, Attr: "category"})
	poi, err2 := asrs.NewComposite(ds.Schema,
		asrs.AggSpec{Kind: asrs.Distribution, Attr: "category"},
		asrs.AggSpec{Kind: asrs.Count},
	)
	if err := errors.Join(err1, err2); err != nil {
		t.Fatal(err)
	}
	eng, err := asrs.NewEngine(ds, asrs.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	epoch := func(tag string, composites ...*asrs.Composite) any {
		t.Helper()
		cur := eng.Epoch().Dataset()
		var geo any
		for _, f := range composites {
			p, err := eng.Pyramid(f)
			if err != nil {
				t.Fatal(err)
			}
			if geo == nil {
				geo = p.Geometry()
			} else if any(p.Geometry()) != geo {
				t.Fatalf("%s: the composites' pyramids hold two geometries", tag)
			}
			alone, err := asrs.BuildPyramid(cur, f)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range dataset.SingaporeDistricts() {
				q, err := asrs.QueryFromRegion(cur, f, nil, d.Rect)
				if err != nil {
					t.Fatal(err)
				}
				req := asrs.QueryRequest{Query: q, A: d.Rect.Width(), B: d.Rect.Height(), TopK: 2}
				req.Options = &asrs.Options{Pyramid: p}
				got, _ := asrs.Answer(cur, nil, req)
				req.Options = &asrs.Options{Pyramid: alone}
				want, _ := asrs.Answer(cur, nil, req)
				if got.Err != nil || want.Err != nil || len(got.Results) != len(want.Results) {
					t.Fatalf("%s %s: %d rows (err %v) through the engine's pyramid, %d (err %v) through a standalone one",
						tag, d.Name, len(got.Results), got.Err, len(want.Results), want.Err)
				}
				for i := range want.Results {
					if math.Float64bits(got.Results[i].Dist) != math.Float64bits(want.Results[i].Dist) || got.Regions[i] != want.Regions[i] {
						t.Fatalf("%s %s row %d: %v at %v through the engine's pyramid, %v at %v through a standalone one",
							tag, d.Name, i+1, got.Results[i].Dist, got.Regions[i], want.Results[i].Dist, want.Regions[i])
					}
				}
			}
		}
		return geo
	}

	seedGeo := epoch("seed", category, poi)
	if folds, st := eng.GeometryFolds(), eng.Stats(); folds != 0 || st.PyramidFolds != 0 {
		t.Fatalf("seed epoch: %d geometry folds, %d pyramid folds; want none", folds, st.PyramidFolds)
	}

	rng := rand.New(rand.NewSource(36))
	inserts := make([]asrs.Object, 40)
	for i := range inserts {
		src := ds.Objects[rng.Intn(len(ds.Objects))]
		src.Loc.X += (rng.Float64() - 0.5) * 0.01
		src.Loc.Y += (rng.Float64() - 0.5) * 0.01
		inserts[i] = src
	}
	inserts[7].Loc = ds.Objects[123].Loc
	if err := eng.InsertBatch(inserts); err != nil {
		t.Fatal(err)
	}
	// The second composite asks first: the epoch's geometry folds once,
	// for whichever composite needs it.
	if geo := epoch("after inserts", poi, category); geo == seedGeo {
		t.Fatal("the epoch after the inserts kept the seed's geometry")
	}
	if folds, st := eng.GeometryFolds(), eng.Stats(); folds != 1 || st.PyramidFolds != 2 {
		t.Fatalf("after inserts: %d geometry folds, %d pyramid folds; want 1 and 2", folds, st.PyramidFolds)
	}
}

// BenchmarkIngestRecovery times a boot that replays a WAL of 100 000
// single-object Tweet inserts: the log's most record-dense shape, one
// 29-byte record per object (8 framing bytes, a 4-byte count and the
// 17-byte object).
func BenchmarkIngestRecovery(b *testing.B) {
	seed := dataset.Tweet(1000, 1)
	extra := dataset.Tweet(100000, 2).Objects
	opt := asrs.EngineOptions{Ingest: asrs.IngestOptions{WALDir: b.TempDir(), Sync: asrs.SyncNever}}
	eng, err := asrs.NewEngine(seed, opt)
	if err != nil {
		b.Fatal(err)
	}
	for i := range extra {
		if err := eng.Insert(extra[i]); err != nil {
			b.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := asrs.NewEngine(seed, opt)
		if err != nil {
			b.Fatal(err)
		}
		if n := eng.Stats().Ingested; n != int64(len(extra)) {
			b.Fatalf("recovered %d objects, want %d", n, len(extra))
		}
		eng.Close()
	}
}
