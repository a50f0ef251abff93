package chaos

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"asrs"
	"asrs/internal/agg"
	"asrs/internal/dataset"
	"asrs/internal/faultinject"
	"asrs/internal/shard"
)

// shardFixture builds the multi-shard chaos corpus: a seeded corpus,
// its composite/query, and a routed workload mixing extents contained
// in single slabs with straddling ones.
func shardFixture(t *testing.T) (*asrs.Dataset, *asrs.Composite, []shard.Request, []float64) {
	t.Helper()
	ds := dataset.Random(60, 100, 77)
	f := agg.MustNew(ds.Schema,
		agg.Spec{Kind: agg.Distribution, Attr: "cat"},
		agg.Spec{Kind: agg.Sum, Attr: "val"},
	)
	q := asrs.Query{F: f, Target: []float64{1, 2, 1, 5}}
	extents := []asrs.Rect{
		{MinX: 2, MinY: 2, MaxX: 98, MaxY: 98},   // straddles every cut
		{MinX: 1, MinY: 1, MaxX: 30, MaxY: 99},   // left slab-ish
		{MinX: 55, MinY: 5, MaxX: 99, MaxY: 95},  // right
		{MinX: 20, MinY: 10, MaxX: 80, MaxY: 90}, // middle straddler
	}
	reqs := make([]shard.Request, 0, len(extents))
	want := make([]float64, 0, len(extents))
	for i := range extents {
		e := extents[i]
		_, res, _, err := asrs.SearchWithin(ds, 7, 7, q, e, nil, asrs.Options{})
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, shard.Request{Query: q, A: 7, B: 7, Extent: &e})
		want = append(want, res.Dist)
	}
	return ds, f, reqs, want
}

func newChaosRouter(t *testing.T, ds *asrs.Dataset, f *asrs.Composite, breaker shard.BreakerConfig) *shard.Router {
	t.Helper()
	cat, err := shard.New(ds, shard.Config{
		Shards:     3,
		Composites: map[string]*asrs.Composite{"q": f},
		Names:      []string{"q"},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cat.Close() })
	return shard.NewRouter(cat, shard.RouterOptions{Breaker: breaker})
}

// routedTypedErr is the routed fault taxonomy: shard unavailability
// (typed, retryable), infeasibility, or a context error. Anything else
// escaping a routed query is a contract violation.
func routedTypedErr(err error) bool {
	var ue *shard.UnavailableError
	return errors.As(err, &ue) ||
		errors.Is(err, asrs.ErrNoFeasibleRegion) ||
		errors.Is(err, asrs.ErrExtentTooSmall) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// TestShardChaosSeeds replays the routed workload under 16 seeded
// shard fault schedules — injected sub-search panics, slow shards, and
// engine load failures — under both partial policies. Contract: the
// process never dies; every failure is typed; any query that saw no
// fault fire and lost no shard answers bit-identically to the
// merged-corpus oracle; a best-effort answer's coverage names the
// skipped shards. Every catalog is closed, and the test ends with a
// goroutine-leak check.
func TestShardChaosSeeds(t *testing.T) {
	checkLeaks(t)
	ds, f, reqs, want := shardFixture(t)
	t.Cleanup(faultinject.Deactivate)

	compared, faulted := 0, 0
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rt := newChaosRouter(t, ds, f, shard.BreakerConfig{
			FailureThreshold: 2,
			BaseBackoff:      5 * time.Millisecond,
			MaxBackoff:       40 * time.Millisecond,
			Seed:             seed,
		})
		plan := faultinject.NewPlan(seed,
			faultinject.Spec{Point: "shard.search.panic", Action: faultinject.ActPanic,
				MaxEvery: 1 << (2 + seed%5)},
			faultinject.Spec{Point: "shard.search.slow", Action: faultinject.ActSleep,
				MaxEvery: 16, Delay: 100 * time.Microsecond},
			faultinject.Spec{Point: "shard.load.fail", Action: faultinject.ActError,
				MaxEvery: 4},
		)
		faultinject.Activate(plan)
		for pass := 0; pass < 3; pass++ {
			for i, req := range reqs {
				if rng.Intn(2) == 0 {
					req.Policy = shard.BestEffort
				} else {
					req.Policy = shard.Strict
				}
				before := plan.Fired()
				resp := rt.Query(context.Background(), req)
				after := plan.Fired()
				if resp.Err != nil {
					faulted++
					if !routedTypedErr(resp.Err) {
						t.Fatalf("seed %d query %d: untyped error %v", seed, i, resp.Err)
					}
					var ue *shard.UnavailableError
					if errors.As(resp.Err, &ue) && !ue.Temporary() {
						t.Fatalf("seed %d query %d: UnavailableError not retryable", seed, i)
					}
					continue
				}
				if !resp.Coverage.Complete() {
					// A best-effort partial answer: the coverage must say
					// which shards were lost and why.
					if req.Policy != shard.BestEffort {
						t.Fatalf("seed %d query %d: strict answer with skips %v", seed, i, resp.Coverage.Skipped)
					}
					for _, s := range resp.Coverage.Skipped {
						if s.Shard == "" || s.Reason == "" {
							t.Fatalf("seed %d query %d: anonymous skip %+v", seed, i, s)
						}
					}
					continue
				}
				if after == before {
					compared++
					if math.Float64bits(resp.Results[0].Dist) != math.Float64bits(want[i]) {
						t.Fatalf("seed %d query %d: fault-free routed answer %v, oracle %v",
							seed, i, resp.Results[0].Dist, want[i])
					}
				}
			}
		}
		faultinject.Deactivate()
	}
	if compared == 0 || faulted == 0 {
		t.Fatalf("degenerate shard chaos run: %d compared, %d faulted", compared, faulted)
	}
	t.Logf("shard chaos: %d fault-free routed queries bit-identical, %d faulted typed", compared, faulted)
}

// TestShardTrippedSiblingIsolation pins the isolation contract
// deterministically: with one shard's breaker held open, queries
// contained in the sibling slabs answer bit-identically to the merged
// oracle, a strict straddler fails typed, and a best-effort straddler
// answers with coverage naming exactly the tripped shard and the bands
// its slab meets, which a round that did not admit it leaves unsearched.
func TestShardTrippedSiblingIsolation(t *testing.T) {
	ds, f, _, _ := shardFixture(t)
	q := asrs.Query{F: f, Target: []float64{1, 2, 1, 5}}
	rt := newChaosRouter(t, ds, f, shard.BreakerConfig{
		FailureThreshold: 1, BaseBackoff: time.Hour, MaxBackoff: time.Hour,
	})
	cat := rt.Catalog()
	tripped := cat.Shards()[1]
	tripped.Breaker().Failure()
	if st := tripped.Breaker().Status(); st.State != "open" {
		t.Fatalf("setup: breaker %+v", st)
	}

	// Sibling slabs keep answering with full bits.
	for _, sh := range []*shard.Shard{cat.Shards()[0], cat.Shards()[2]} {
		lo, hi := sh.Slab()
		lo, hi = math.Max(lo, 0), math.Min(hi, 100)
		e := asrs.Rect{MinX: lo + 0.25, MinY: 1, MaxX: hi - 0.25, MaxY: 99}
		if e.Width() < 7 {
			continue
		}
		_, ores, _, err := asrs.SearchWithin(ds, 7, 7, q, e, nil, asrs.Options{})
		wantErr := err
		resp := rt.Query(context.Background(), shard.Request{Query: q, A: 7, B: 7, Extent: &e})
		if wantErr != nil {
			if !errors.Is(resp.Err, wantErr) {
				t.Fatalf("shard %s: err %v vs oracle %v", sh.Name(), resp.Err, wantErr)
			}
			continue
		}
		if resp.Err != nil {
			t.Fatalf("healthy sibling %s failed: %v", sh.Name(), resp.Err)
		}
		if math.Float64bits(resp.Results[0].Dist) != math.Float64bits(ores.Dist) {
			t.Fatalf("tripped shard perturbed sibling %s: %v vs %v", sh.Name(), resp.Results[0].Dist, ores.Dist)
		}
	}

	// The skips a straddler over the tripped shard reports: the shard,
	// and both bands at its cuts, naming it.
	e := asrs.Rect{MinX: 2, MinY: 2, MaxX: 98, MaxY: 98}
	want := map[string]string{tripped.Name(): "breaker_open"}
	for _, c := range cat.Cuts() {
		want[fmt.Sprintf("band@%g", c)] = tripped.Name()
	}
	checkSkips := func(tag string, skipped []shard.SkippedShard) {
		t.Helper()
		if len(skipped) != len(want) {
			t.Fatalf("%s skip list %+v, want %v", tag, skipped, want)
		}
		for _, s := range skipped {
			if want[s.Shard] != s.Reason {
				t.Fatalf("%s skip list %+v, want %v", tag, skipped, want)
			}
		}
	}

	// Straddling strict: typed retryable failure naming the tripped shard.
	resp := rt.Query(context.Background(), shard.Request{Query: q, A: 7, B: 7, Extent: &e, Policy: shard.Strict})
	var ue *shard.UnavailableError
	if !errors.As(resp.Err, &ue) {
		t.Fatalf("strict straddler over tripped shard: %v", resp.Err)
	}
	checkSkips("strict", ue.Skipped)

	// Straddling best-effort: an answer, with coverage naming exactly
	// the tripped shard and its bands.
	resp = rt.Query(context.Background(), shard.Request{Query: q, A: 7, B: 7, Extent: &e, Policy: shard.BestEffort})
	if resp.Err != nil {
		t.Fatalf("best-effort straddler failed outright: %v", resp.Err)
	}
	checkSkips("best-effort", resp.Coverage.Skipped)
	for _, name := range []string{"shard-0", "shard-2"} {
		found := false
		for _, s := range resp.Coverage.Searched {
			if s == name {
				found = true
			}
		}
		if !found {
			t.Fatalf("best-effort coverage %v missing surviving shard %s", resp.Coverage.Searched, name)
		}
	}
}
