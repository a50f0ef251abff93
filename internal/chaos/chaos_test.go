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
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"asrs"
	"asrs/internal/dataset"
	"asrs/internal/faultinject"
	"asrs/internal/kernel"
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
// schedules IS the no-process-death assertion.
func TestEngineChaosSeeds(t *testing.T) {
	ds, _, reqs, want := fixture(t)

	compared, faulted := 0, 0
	for seed := int64(1); seed <= 24; seed++ {
		eng, err := asrs.NewEngine(ds, asrs.EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
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

// TestPersistChaosSeeds replays pyramid save/load under 20 seeded IO
// fault schedules. Contract: a failed save leaves the previous
// complete file loadable (or no file at all); a successful save loads
// back; injected load faults surface typed.
func TestPersistChaosSeeds(t *testing.T) {
	ds, f, _, _ := fixture(t)
	pyr, _, err := asrs.LoadOrBuildPyramidFile(filepath.Join(t.TempDir(), "oracle.bin"), ds, f)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "pyr.bin")
	if err := asrs.SavePyramidFile(path, pyr); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for seed := int64(1); seed <= 20; seed++ {
		plan := faultinject.NewPlan(seed,
			faultinject.Spec{Point: "persist.save.write", Action: faultinject.ActShortWrite, MaxEvery: 6},
			faultinject.Spec{Point: "persist.save.sync", Action: faultinject.ActError, MaxEvery: 8},
			faultinject.Spec{Point: "persist.save.rename", Action: faultinject.ActError, MaxEvery: 8},
		)
		faultinject.Activate(plan)
		serr := asrs.SavePyramidFile(path, pyr)
		fired := plan.Fired()
		faultinject.Deactivate()

		if serr != nil {
			if !errors.Is(serr, faultinject.ErrInjected) {
				t.Fatalf("seed %d: untyped save error %v", seed, serr)
			}
			if fired == 0 {
				t.Fatalf("seed %d: save failed with no fault fired: %v", seed, serr)
			}
		}
		// Old-or-new: whatever the save's fate, the destination must
		// hold a COMPLETE loadable pyramid (the old bytes on failure,
		// either on success — both encode the same pyramid here).
		got, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatalf("seed %d: destination unreadable after save attempt: %v", seed, rerr)
		}
		if len(got) != len(good) {
			t.Fatalf("seed %d: destination torn: %d bytes, want %d", seed, len(got), len(good))
		}
		if _, lerr := asrs.LoadPyramidFile(path, ds, f); lerr != nil {
			t.Fatalf("seed %d: destination unloadable after save attempt: %v", seed, lerr)
		}
	}

	// Injected read faults: typed errors, never panics, file untouched.
	for seed := int64(1); seed <= 6; seed++ {
		faultinject.Activate(faultinject.NewPlan(seed,
			faultinject.Spec{Point: "persist.load.read", Action: faultinject.ActError, MaxEvery: 4}))
		_, lerr := asrs.LoadPyramidFile(path, ds, f)
		fired := faultinject.Fired()
		faultinject.Deactivate()
		if fired > 0 && lerr == nil {
			t.Fatalf("seed %d: read fault fired but load succeeded", seed)
		}
		if lerr != nil && !errors.Is(lerr, faultinject.ErrInjected) {
			t.Fatalf("seed %d: untyped load error %v", seed, lerr)
		}
	}
}

// TestSigtermDrainWithConcurrentSave delivers a real SIGTERM while
// concurrent queries are in flight and a pyramid save is running
// concurrently — the asrsd shutdown scenario. Contract: the drain
// completes (in-flight queries get real answers, not errors), and the
// pyramid file is never torn — afterwards it holds a complete
// old-or-new image that loads cleanly.
func TestSigtermDrainWithConcurrentSave(t *testing.T) {
	ds, f, reqs, want := fixture(t)
	eng, err := asrs.NewEngine(ds, asrs.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "pyr.bin")
	pyr, _, err := asrs.LoadOrBuildPyramidFile(path, ds, f)
	if err != nil {
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

	// Concurrent save racing the signal and the drain.
	saveErr := make(chan error, 1)
	go func() { saveErr <- asrs.SavePyramidFile(path, pyr) }()

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
	if err := <-saveErr; err != nil {
		t.Fatalf("concurrent save failed: %v", err)
	}

	// Old-or-new, never torn: the file must load cleanly.
	if _, err := asrs.LoadPyramidFile(path, ds, f); err != nil {
		t.Fatalf("pyramid torn after SIGTERM drain: %v", err)
	}
}
