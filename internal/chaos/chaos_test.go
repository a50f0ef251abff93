// Package chaos is the deterministic fault-injection acceptance suite:
// it replays query workloads under seeded failpoint schedules
// (internal/faultinject) and asserts the fault-domain contract of
// DESIGN.md §9 — the process never dies, every failure surfaces as a
// typed error, and any query whose path had no fault fired answers
// bit-identically to the fault-free oracle. Schedules are pure
// functions of their seed, so a failing seed replays exactly.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"asrs"
	"asrs/internal/dataset"
	"asrs/internal/faultinject"
	"asrs/internal/kernel"
	"asrs/internal/persist"
)

// chaosCorpus builds the chaos fixture once: a small corpus (chaos
// runs the workload 20+ times), its composite, a mixed workload, and
// the fault-free oracle distances.
var chaosCorpus struct {
	once sync.Once
	ds   *asrs.Dataset
	f    *asrs.Composite
	reqs []asrs.QueryRequest
	want []float64
	err  error
}

func fixture(t *testing.T) (*asrs.Dataset, *asrs.Composite, []asrs.QueryRequest, []float64) {
	t.Helper()
	chaosCorpus.once.Do(func() {
		ds := dataset.POISyn(1600, 17)
		f, err := asrs.NewComposite(ds.Schema,
			asrs.AggSpec{Kind: asrs.Sum, Attr: "visits"},
			asrs.AggSpec{Kind: asrs.Average, Attr: "rating"},
		)
		if err != nil {
			chaosCorpus.err = err
			return
		}
		bounds := ds.Bounds()
		// Mixed workload: varying extents, a top-k, an exclusion — the
		// shapes exercise different kernel depths, so a sparse fault
		// schedule hits some queries and spares others.
		mk := func(scale float64, tgt0 float64) asrs.QueryRequest {
			target := make([]float64, f.Dims())
			target[0] = tgt0
			target[len(target)-1] = 2.5
			return asrs.QueryRequest{
				Query: asrs.Query{F: f, Target: target},
				A:     bounds.Width() * scale,
				B:     bounds.Height() * scale,
			}
		}
		reqs := []asrs.QueryRequest{
			mk(0.08, 40), mk(0.12, 90), mk(0.20, 200), mk(0.05, 15),
			mk(0.15, 120), mk(0.10, 60),
		}
		topk := mk(0.10, 75)
		topk.TopK = 2
		reqs = append(reqs, topk)
		excl := mk(0.12, 100)
		excl.Exclude = []asrs.Rect{{MinX: bounds.MinX, MinY: bounds.MinY,
			MaxX: bounds.MinX + bounds.Width()/4, MaxY: bounds.MinY + bounds.Height()/4}}
		reqs = append(reqs, excl)

		eng, err := asrs.NewEngine(ds, asrs.EngineOptions{})
		if err != nil {
			chaosCorpus.err = err
			return
		}
		defer eng.Close()
		want := make([]float64, len(reqs))
		for i, req := range reqs {
			resp := eng.Query(req)
			if resp.Err != nil {
				chaosCorpus.err = resp.Err
				return
			}
			want[i] = resp.Results[0].Dist
		}
		chaosCorpus.ds, chaosCorpus.f = ds, f
		chaosCorpus.reqs, chaosCorpus.want = reqs, want
	})
	if chaosCorpus.err != nil {
		t.Fatal(chaosCorpus.err)
	}
	return chaosCorpus.ds, chaosCorpus.f, chaosCorpus.reqs, chaosCorpus.want
}

// checkLeaks ends a test with a goroutine-leak check: its clean-up, which
// runs after every clean-up registered later, waits up to 10 s for
// runtime.NumGoroutine to settle back to its count from before the test
// built anything, and prints every stack otherwise — a goroutine left
// over is one an engine, a router or a shard leaked.
func checkLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Errorf("%d goroutines after clean-up, %d before the test:\n%s",
					runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

// typedErr reports whether an error belongs to the taxonomy the fault
// contract allows: a kernel PanicError, an injected fault, or a
// context error. Anything else — and any panic that escapes — is a
// contract violation.
func typedErr(err error) bool {
	var pe *kernel.PanicError
	return errors.As(err, &pe) ||
		errors.Is(err, faultinject.ErrInjected) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// TestEngineChaosSeeds replays the workload under 24 seeded kernel
// fault schedules (injected kernel panics at seed-varied rates plus
// slow kernel merges). Per query: bracket with Fired() — if no fault fired
// on its path, the answer must be bit-identical to the oracle; if the
// query failed, the error must be typed. The process surviving all 24
// schedules IS the no-process-death assertion. Every engine is closed,
// and the test ends with a goroutine-leak check.
func TestEngineChaosSeeds(t *testing.T) {
	checkLeaks(t)
	ds, _, reqs, want := fixture(t)

	compared, faulted := 0, 0
	for seed := int64(1); seed <= 24; seed++ {
		eng, err := asrs.NewEngine(ds, asrs.EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		// Seed-varied rates: low seeds arm aggressive panics (every
		// query dies), high seeds sparse ones (most queries survive
		// untouched and must stay bit-identical).
		plan := faultinject.NewPlan(seed,
			faultinject.Spec{Point: "kernel.process.panic", Action: faultinject.ActPanic,
				MaxEvery: 1 << (4 + seed%10)},
			faultinject.Spec{Point: "kernel.barrier.slow", Action: faultinject.ActSleep,
				MaxEvery: 64, Delay: 100 * time.Microsecond},
		)
		faultinject.Activate(plan)
		for i, req := range reqs {
			before := plan.FiredAt("kernel.process.panic")
			resp := eng.Query(req)
			after := plan.FiredAt("kernel.process.panic")
			if resp.Err != nil {
				faulted++
				if !typedErr(resp.Err) {
					t.Fatalf("seed %d query %d: untyped error %v", seed, i, resp.Err)
				}
				if after == before {
					t.Fatalf("seed %d query %d: failed with no fault fired: %v", seed, i, resp.Err)
				}
				continue
			}
			if after == before {
				compared++
				if math.Float64bits(resp.Results[0].Dist) != math.Float64bits(want[i]) {
					t.Fatalf("seed %d query %d: fault-free answer %v, oracle %v",
						seed, i, resp.Results[0].Dist, want[i])
				}
			}
		}
		faultinject.Deactivate()
	}
	// The schedule spread must actually produce both regimes, or the
	// suite is asserting nothing.
	if compared == 0 || faulted == 0 {
		t.Fatalf("degenerate chaos run: %d compared, %d faulted", compared, faulted)
	}
	t.Logf("chaos: %d fault-free queries compared bit-identical, %d faulted with typed errors", compared, faulted)
}

// TestPersistChaosSeeds replays an ingest compaction — the one durable
// write, the ingest snapshot — under 20 seeded IO fault schedules over
// its write, fsyncs and rename. Contract: a compaction that fails does so
// typed and leaves the previous complete snapshot or the new one, never a
// torn file; one that succeeds leaves the new one; and whatever its fate,
// a reboot over the directory recovers every acknowledged insert. The
// schedules must reach every regime, among them an fsync failure that
// leaves the old snapshot: the snapshot is fsynced before the rename
// publishes it.
func TestPersistChaosSeeds(t *testing.T) {
	ds, _, _, _ := fixture(t)
	pool := insertPool(20, 61)
	snapped := func(dir string) int {
		t.Helper()
		objs, _, err := persist.LoadIngestSnapshot(filepath.Join(dir, "ingest.snap"), ds.Schema)
		if err != nil {
			t.Fatalf("snapshot unreadable after a compaction: %v", err)
		}
		return len(objs)
	}
	regimes := map[string]int{}
	for seed := int64(1); seed <= 20; seed++ {
		dir := t.TempDir()
		opt := asrs.EngineOptions{Ingest: asrs.IngestOptions{WALDir: dir, CompactAt: -1}}
		eng, err := asrs.NewEngine(ds, opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.InsertBatch(pool[:10]); err != nil {
			t.Fatal(err)
		}
		if err := eng.Compact(); err != nil {
			t.Fatal(err)
		}
		if err := eng.InsertBatch(pool[10:]); err != nil {
			t.Fatal(err)
		}
		plan := faultinject.NewPlan(seed,
			faultinject.Spec{Point: "compact.save", Action: faultinject.ActShortWrite, MaxEvery: 6},
			faultinject.Spec{Point: "persist.save.sync", Action: faultinject.ActError, MaxEvery: 6},
			faultinject.Spec{Point: "persist.save.rename", Action: faultinject.ActError, MaxEvery: 6},
		)
		faultinject.Activate(plan)
		cerr := eng.Compact()
		faultinject.Deactivate()

		n := snapped(dir)
		switch {
		case cerr == nil:
			if plan.Fired() != 0 || n != 20 {
				t.Fatalf("seed %d: compaction succeeded after %d faults, snapshot holds %d objects", seed, plan.Fired(), n)
			}
			regimes["success"]++
		case !errors.Is(cerr, faultinject.ErrInjected):
			t.Fatalf("seed %d: untyped compaction error %v", seed, cerr)
		case plan.FiredAt("compact.save") > 0 || plan.FiredAt("persist.save.rename") > 0:
			if n != 10 {
				t.Fatalf("seed %d: a write or rename fault published a snapshot of %d objects", seed, n)
			}
			regimes["write or rename"]++
		case n == 10:
			regimes["fsync, old kept"]++
		default:
			regimes["fsync, new published"]++
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := asrs.NewEngine(ds, opt)
		if err != nil {
			t.Fatalf("seed %d: reboot: %v", seed, err)
		}
		objsBitsEqual(t, fmt.Sprintf("seed %d reboot", seed), again.IngestedObjects(), pool)
		again.Close()
	}
	for _, r := range []string{"success", "write or rename", "fsync, old kept"} {
		if regimes[r] == 0 {
			t.Fatalf("no seed reached the %q regime: %v", r, regimes)
		}
	}
	t.Logf("compaction regimes over 20 seeds: %v", regimes)
}

// TestSigtermDrainWithConcurrentSave delivers a real SIGTERM while
// concurrent queries are in flight and an ingest compaction is running
// concurrently, held in its fsyncs — the asrsd shutdown scenario.
// Contract: the drain completes (in-flight queries get real answers, not
// errors), the compaction fsyncs the snapshot and its directory and
// succeeds, and a reboot over the directory finds every insert in the
// snapshot.
func TestSigtermDrainWithConcurrentSave(t *testing.T) {
	ds, _, reqs, _ := fixture(t)
	tail := insertPool(40, 62)
	oracle, err := asrs.NewEngine(combinedDataset(ds, tail), asrs.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(reqs))
	for i, req := range reqs {
		resp := oracle.Query(req)
		if resp.Err != nil {
			t.Fatal(resp.Err)
		}
		want[i] = resp.Results[0].Dist
	}

	dir := t.TempDir()
	opt := asrs.EngineOptions{Ingest: asrs.IngestOptions{WALDir: dir, CompactAt: -1}}
	eng, err := asrs.NewEngine(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.InsertBatch(tail); err != nil {
		t.Fatal(err)
	}

	// Mirror cmd/asrsd's signal wiring: NotifyContext on SIGTERM.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()

	// In-flight concurrent queries: launched before the signal.
	type outcome struct {
		i    int
		resp asrs.QueryResponse
	}
	results := make(chan outcome, len(reqs))
	var qwg sync.WaitGroup
	for i, req := range reqs {
		qwg.Add(1)
		go func(i int, req asrs.QueryRequest) {
			defer qwg.Done()
			results <- outcome{i, eng.Query(req)}
		}(i, req)
	}

	// Concurrent compaction racing the signal and the drain, each of its
	// fsyncs slowed so the signal lands while it is under way.
	plan := faultinject.NewPlan(1, faultinject.Spec{Point: "persist.save.sync", Action: faultinject.ActSleep, MaxEvery: 1, Delay: 20 * time.Millisecond})
	faultinject.Activate(plan)
	defer faultinject.Deactivate()
	compactErr := make(chan error, 1)
	go func() { compactErr <- eng.Compact() }()

	// Deliver a REAL SIGTERM to this process.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("SIGTERM not delivered within 5s")
	}

	// Drain: wait for in-flight work like asrsd's grace period does.
	qwg.Wait()
	close(results)
	for out := range results {
		if out.resp.Err != nil {
			t.Fatalf("drained query %d failed: %v", out.i, out.resp.Err)
		}
		if math.Float64bits(out.resp.Results[0].Dist) != math.Float64bits(want[out.i]) {
			t.Fatalf("drained query %d answered %v, want %v", out.i, out.resp.Results[0].Dist, want[out.i])
		}
	}
	if err := <-compactErr; err != nil {
		t.Fatalf("concurrent compaction failed: %v", err)
	}
	faultinject.Deactivate()
	if syncs := plan.FiredAt("persist.save.sync"); syncs != 2 {
		t.Fatalf("the compaction fsynced %d times, want the snapshot and its directory", syncs)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// The snapshot holds every insert, and a reboot recovers them.
	snap, _, err := persist.LoadIngestSnapshot(filepath.Join(dir, "ingest.snap"), ds.Schema)
	if err != nil {
		t.Fatalf("snapshot unreadable after the drain: %v", err)
	}
	objsBitsEqual(t, "snapshot", snap, tail)
	again, err := asrs.NewEngine(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	objsBitsEqual(t, "reboot", again.IngestedObjects(), tail)
}
