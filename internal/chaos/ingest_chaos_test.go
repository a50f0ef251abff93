package chaos

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"asrs"
	"asrs/internal/dataset"
	"asrs/internal/faultinject"
	"asrs/internal/server"
	"asrs/internal/wire"
)

// Ingest chaos: kill-and-replay schedules over the streaming-ingest
// fault domain (DESIGN.md §10). A "crash" is an engine abandoned
// without Close — its WAL file handles stay open, exactly like a
// SIGKILL'd process — followed by a fresh NewEngine over the same
// directory. The contract under every seeded schedule:
//
//   - every acknowledged insert survives recovery, and nothing that
//     was refused sneaks in (the recovered tail is exactly the acked
//     objects, bit for bit);
//   - post-recovery answers are bit-identical to an engine built over
//     seed ++ recovered from scratch, at any batch/serving
//     configuration;
//   - every failure along the way is a typed error; the process never
//     dies.

// insertPool returns a pool of objects structurally valid for the
// chaos fixture's schema (POISyn's two numeric attributes).
func insertPool(n int, seed int64) []asrs.Object {
	return dataset.POISyn(n, seed).Objects
}

// objsBitsEqual asserts two object slices are identical: same length,
// same locations and attribute values to the bit.
func objsBitsEqual(t *testing.T, tag string, got, want []asrs.Object) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: recovered %d objects, want %d", tag, len(got), len(want))
	}
	for i := range got {
		g, w := &got[i], &want[i]
		if math.Float64bits(g.Loc.X) != math.Float64bits(w.Loc.X) ||
			math.Float64bits(g.Loc.Y) != math.Float64bits(w.Loc.Y) {
			t.Fatalf("%s: object %d location %v, want %v", tag, i, g.Loc, w.Loc)
		}
		if len(g.Values) != len(w.Values) {
			t.Fatalf("%s: object %d has %d values, want %d", tag, i, len(g.Values), len(w.Values))
		}
		for j := range g.Values {
			if g.Values[j].Cat != w.Values[j].Cat ||
				math.Float64bits(g.Values[j].Num) != math.Float64bits(w.Values[j].Num) {
				t.Fatalf("%s: object %d value %d = %+v, want %+v", tag, i, j, g.Values[j], w.Values[j])
			}
		}
	}
}

// tearWALTail simulates the torn write of a crash mid-append: it
// appends a partial frame header to the newest WAL segment. Replay
// must truncate it cleanly without losing any complete frame.
func tearWALTail(t *testing.T, dir string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments to tear in %s (err %v)", dir, err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01}); err != nil {
		t.Fatal(err)
	}
}

// combinedDataset is the logical post-recovery corpus: seed ++ tail.
func combinedDataset(ds *asrs.Dataset, tail []asrs.Object) *asrs.Dataset {
	objs := make([]asrs.Object, 0, len(ds.Objects)+len(tail))
	objs = append(objs, ds.Objects...)
	objs = append(objs, tail...)
	return &asrs.Dataset{Schema: ds.Schema, Objects: objs}
}

// TestIngestKillAndReplaySeeds drives the full crash matrix under 8
// seeded fault schedules: injected append/sync failures (refused
// inserts), forced segment rotation (tiny SegmentBytes), and on odd
// seeds a torn tail written at the "kill" point. After each crash the
// engine recovers and must hold exactly the acked objects and answer
// bit-identically to a from-scratch rebuild — on even seeds at a second
// engine configuration (parallel batches) too. The matrix runs under
// both acknowledging sync policies: a batch refused under either must
// never come back.
func TestIngestKillAndReplaySeeds(t *testing.T) {
	for _, policy := range []asrs.SyncPolicy{asrs.SyncAlways, asrs.SyncBatch} {
		t.Run(policy.String(), func(t *testing.T) { killAndReplaySeeds(t, policy) })
	}
}

func killAndReplaySeeds(t *testing.T, policy asrs.SyncPolicy) {
	ds, _, reqs, _ := fixture(t)
	pool := insertPool(160, 901)

	ackedTotal, refused := 0, 0
	var appendFaults uint64
	for seed := int64(1); seed <= 8; seed++ {
		ing := asrs.IngestOptions{WALDir: t.TempDir(), Sync: policy, SegmentBytes: 512}
		eng, err := asrs.NewEngine(ds, asrs.EngineOptions{Ingest: ing})
		if err != nil {
			t.Fatal(err)
		}
		plan := faultinject.NewPlan(seed,
			faultinject.Spec{Point: "wal.append.write", Action: faultinject.ActShortWrite,
				MaxEvery: 1 << (2 + seed%3)},
			faultinject.Spec{Point: "wal.append.sync", Action: faultinject.ActError,
				MaxEvery: 1 << (3 + seed%3)},
		)
		faultinject.Activate(plan)
		rng := rand.New(rand.NewSource(seed * 7919))
		var acked []asrs.Object
		for i := 0; i < len(pool); {
			n := 1 + rng.Intn(8)
			if i+n > len(pool) {
				n = len(pool) - i
			}
			batch := pool[i : i+n]
			if err := eng.InsertBatch(batch); err != nil {
				refused++
				if !typedErr(err) {
					t.Fatalf("seed %d: untyped insert error %v", seed, err)
				}
			} else {
				acked = append(acked, batch...)
			}
			i += n
		}
		appendFaults += plan.FiredAt("wal.append.write") + plan.FiredAt("wal.append.sync")
		faultinject.Deactivate()
		ackedTotal += len(acked)

		// Crash: abandon eng without Close. Odd seeds additionally tear
		// the active segment, as a kill mid-write would.
		if seed%2 == 1 {
			tearWALTail(t, ing.WALDir)
		}

		rec, err := asrs.NewEngine(ds, asrs.EngineOptions{Ingest: ing})
		if err != nil {
			t.Fatalf("seed %d: recovery failed: %v", seed, err)
		}
		got := rec.IngestedObjects()
		objsBitsEqual(t, "seed "+string(rune('0'+seed)), got, acked)

		oracle, err := asrs.NewEngine(combinedDataset(ds, got), asrs.EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i, req := range reqs {
			wr, rr := oracle.Query(req), rec.Query(req)
			if wr.Err != nil || rr.Err != nil {
				t.Fatalf("seed %d query %d: oracle err %v, recovered err %v", seed, i, wr.Err, rr.Err)
			}
			if math.Float64bits(rr.Results[0].Dist) != math.Float64bits(wr.Results[0].Dist) {
				t.Fatalf("seed %d query %d: recovered answer %v, rebuild oracle %v",
					seed, i, rr.Results[0].Dist, wr.Results[0].Dist)
			}
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}

		// Even seeds: a second recovery at a different configuration
		// (parallel batch path) answers identically too.
		if seed%2 == 0 {
			rec2, err := asrs.NewEngine(ds, asrs.EngineOptions{
				Ingest: ing, BatchParallelism: 2,
			})
			if err != nil {
				t.Fatalf("seed %d: second recovery failed: %v", seed, err)
			}
			wantB, gotB := oracle.QueryBatch(reqs), rec2.QueryBatch(reqs)
			for i := range reqs {
				if wantB[i].Err != nil || gotB[i].Err != nil {
					t.Fatalf("seed %d batch %d: oracle err %v, recovered err %v",
						seed, i, wantB[i].Err, gotB[i].Err)
				}
				if math.Float64bits(gotB[i].Results[0].Dist) != math.Float64bits(wantB[i].Results[0].Dist) {
					t.Fatalf("seed %d batch %d: recovered answer %v, rebuild oracle %v",
						seed, i, gotB[i].Results[0].Dist, wantB[i].Results[0].Dist)
				}
			}
			if err := rec2.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The schedule spread must produce acks, refusals and faults, or the
	// matrix is asserting nothing.
	if ackedTotal == 0 || refused == 0 || appendFaults == 0 {
		t.Fatalf("degenerate ingest chaos run: %d acked, %d refused, %d append faults",
			ackedTotal, refused, appendFaults)
	}
	t.Logf("ingest chaos: %d inserts acked and recovered, %d refused typed (append faults %d)",
		ackedTotal, refused, appendFaults)
}

// TestIngestReplayFaultTyped: an IO fault during recovery surfaces as
// a typed NewEngine error (never a panic, never a silently short
// corpus), and the very next fault-free open recovers everything.
func TestIngestReplayFaultTyped(t *testing.T) {
	ds, _, _, _ := fixture(t)
	pool := insertPool(20, 902)
	ing := asrs.IngestOptions{WALDir: t.TempDir(), Sync: asrs.SyncAlways}

	eng, err := asrs.NewEngine(ds, asrs.EngineOptions{Ingest: ing})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.InsertBatch(pool); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	faultinject.Activate(faultinject.NewPlan(1,
		faultinject.Spec{Point: "wal.replay.read", Action: faultinject.ActError, MaxEvery: 1}))
	_, rerr := asrs.NewEngine(ds, asrs.EngineOptions{Ingest: ing})
	fired := faultinject.Fired()
	faultinject.Deactivate()
	if fired == 0 {
		t.Fatal("replay read fault never fired")
	}
	if rerr == nil {
		t.Fatal("recovery succeeded under an injected replay fault")
	}
	if !errors.Is(rerr, faultinject.ErrInjected) {
		t.Fatalf("untyped recovery error %v", rerr)
	}

	rec, err := asrs.NewEngine(ds, asrs.EngineOptions{Ingest: ing})
	if err != nil {
		t.Fatalf("fault-free recovery failed: %v", err)
	}
	objsBitsEqual(t, "replay-retry", rec.IngestedObjects(), pool)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestIngestServerKillAndRequery runs the serving-layer config of the
// crash matrix: objects ingested through POST /v1/insert, the server
// and engine abandoned without drain (the SIGKILL shape), then a fresh
// engine + server over the same WAL directory must answer
// POST /v1/query bit-identically to a from-scratch rebuild.
func TestIngestServerKillAndRequery(t *testing.T) {
	ds, f, reqs, _ := fixture(t)
	pool := insertPool(60, 903)
	ing := asrs.IngestOptions{WALDir: t.TempDir(), Sync: asrs.SyncAlways, SegmentBytes: 512}

	eng, err := asrs.NewEngine(ds, asrs.EngineOptions{Ingest: ing})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Engine:     eng,
		Composites: map[string]*asrs.Composite{"f2": f},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())

	post := func(url string, body any) (*http.Response, []byte) {
		t.Helper()
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp, buf.Bytes()
	}

	// Ingest over the wire in batches; every ack is a durability promise.
	for i := 0; i < len(pool); i += 10 {
		batch := pool[i : i+10]
		objs := make([]wire.InsertObject, len(batch))
		for j, o := range batch {
			objs[j] = wire.InsertObject{X: o.Loc.X, Y: o.Loc.Y,
				Values: map[string]any{"rating": o.Values[0].Num, "visits": o.Values[1].Num}}
		}
		resp, body := post(ts.URL+"/v1/insert", wire.Insert{Objects: objs})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("insert %d: status %d, body %s", i, resp.StatusCode, body)
		}
	}

	// "SIGKILL": close the listener and abandon server and engine —
	// no drain, no Close.
	ts.Close()

	rec, err := asrs.NewEngine(ds, asrs.EngineOptions{Ingest: ing})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	objsBitsEqual(t, "server-recovery", rec.IngestedObjects(), pool)

	oracle, err := asrs.NewEngine(combinedDataset(ds, pool), asrs.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := server.New(server.Config{
		Engine:     rec,
		Composites: map[string]*asrs.Composite{"f2": f},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	for i, req := range reqs {
		want := oracle.Query(req)
		if want.Err != nil {
			t.Fatal(want.Err)
		}
		excl := make([]wire.Rect, len(req.Exclude))
		for j, r := range req.Exclude {
			excl[j] = wire.RectWire(r)
		}
		wq := wire.Query{Composite: "f2", A: req.A, B: req.B,
			Target: req.Query.Target, TopK: req.TopK, Exclude: excl}
		resp, body := post(ts2.URL+"/v1/query", wq)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d, body %s", i, resp.StatusCode, body)
		}
		var wr wire.Response
		if err := json.Unmarshal(body, &wr); err != nil {
			t.Fatal(err)
		}
		if len(wr.Results) == 0 ||
			math.Float64bits(wr.Results[0].Dist) != math.Float64bits(want.Results[0].Dist) {
			t.Fatalf("query %d: served answer %+v, rebuild oracle %v", i, wr.Results, want.Results[0].Dist)
		}
	}
}

// TestIngestChaosConcurrent is the -race schedule: inserts, queries
// and batches race under sparse seeded ingest faults. Contract: only
// typed errors, and after the faults lift, a clean close and recovery
// hold exactly the acked objects and answer like a from-scratch
// rebuild. It closes the engines it builds and ends
// with a goroutine-leak check.
func TestIngestChaosConcurrent(t *testing.T) {
	checkLeaks(t)
	ds, _, reqs, _ := fixture(t)
	pool := insertPool(120, 904)
	ing := asrs.IngestOptions{WALDir: t.TempDir(), Sync: asrs.SyncNever, SegmentBytes: 1024}
	eng, err := asrs.NewEngine(ds, asrs.EngineOptions{
		Ingest: ing, BatchParallelism: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	plan := faultinject.NewPlan(42,
		faultinject.Spec{Point: "wal.append.write", Action: faultinject.ActShortWrite, MaxEvery: 16},
	)
	faultinject.Activate(plan)

	var wg sync.WaitGroup
	var acked []asrs.Object // owned by the inserter goroutine until Wait
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i+8 <= len(pool); i += 8 {
			batch := pool[i : i+8]
			if err := eng.InsertBatch(batch); err != nil {
				if !typedErr(err) {
					t.Errorf("untyped concurrent insert error %v", err)
					return
				}
				continue
			}
			acked = append(acked, batch...)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			resp := eng.Query(reqs[i%len(reqs)])
			if resp.Err != nil && !typedErr(resp.Err) {
				t.Errorf("untyped concurrent query error %v", resp.Err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			for _, resp := range eng.QueryBatch(reqs[:3]) {
				if resp.Err != nil && !typedErr(resp.Err) {
					t.Errorf("untyped concurrent batch error %v", resp.Err)
					return
				}
			}
		}
	}()
	wg.Wait()
	fired := plan.Fired()
	faultinject.Deactivate()
	if t.Failed() {
		eng.Close()
		return
	}
	if fired == 0 {
		t.Fatal("degenerate concurrent schedule: no fault fired")
	}

	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := asrs.NewEngine(ds, asrs.EngineOptions{Ingest: ing})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	objsBitsEqual(t, "concurrent-recovery", rec.IngestedObjects(), acked)
	oracle, err := asrs.NewEngine(combinedDataset(ds, acked), asrs.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	for i, req := range reqs {
		wr, rr := oracle.Query(req), rec.Query(req)
		if wr.Err != nil || rr.Err != nil {
			t.Fatalf("query %d: oracle err %v, recovered err %v", i, wr.Err, rr.Err)
		}
		if math.Float64bits(rr.Results[0].Dist) != math.Float64bits(wr.Results[0].Dist) {
			t.Fatalf("query %d: recovered answer %v, rebuild oracle %v",
				i, rr.Results[0].Dist, wr.Results[0].Dist)
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}
