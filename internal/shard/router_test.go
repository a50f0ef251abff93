package shard_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"asrs"
	"asrs/internal/agg"
	"asrs/internal/asp"
	"asrs/internal/dataset"
	"asrs/internal/shard"
)

func corpus(t *testing.T, n int, seed int64) (*asrs.Dataset, *asrs.Composite, asrs.Query) {
	t.Helper()
	ds := dataset.Random(n, 100, seed)
	f := agg.MustNew(ds.Schema,
		agg.Spec{Kind: agg.Distribution, Attr: "cat"},
		agg.Spec{Kind: agg.Sum, Attr: "val"},
	)
	q := asrs.Query{F: f, Target: []float64{1, 2, 1, 5}}
	return ds, f, q
}

func newCatalog(t *testing.T, ds *asrs.Dataset, f *asrs.Composite, shards int) *shard.Catalog {
	t.Helper()
	cat, err := shard.New(ds, shard.Config{
		Shards:     shards,
		Composites: map[string]*asrs.Composite{"q": f},
		Names:      []string{"q"},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cat.Close() })
	return cat
}

// checkLeaks ends a test with a goroutine-leak check: its clean-up, which
// runs after every clean-up registered later (the catalogs' Close), waits
// for runtime.NumGoroutine to settle back to its count from before the
// test built anything — a goroutine left over is one the router or a
// shard leaked.
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

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func sameRect(a, b asrs.Rect) bool {
	return sameBits(a.MinX, b.MinX) && sameBits(a.MinY, b.MinY) &&
		sameBits(a.MaxX, b.MaxX) && sameBits(a.MaxY, b.MaxY)
}

func sameRep(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestRoutedContainedBitIdentity: an extent contained in one shard's
// closed slab must answer bit-identically — region, point, distance and
// representation — to a single merged-corpus engine, for every shard
// count, with top-k and exclusions in play. This is the
// router's core exactness contract (DESIGN.md §11).
func TestRoutedContainedBitIdentity(t *testing.T) {
	checkLeaks(t)
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 4; trial++ {
		ds, f, q := corpus(t, 60, rng.Int63())
		oracle, err := asrs.NewEngine(ds, asrs.EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		a, b := 6.0, 6.0
		for _, ns := range []int{2, 3, 4} {
			cat := newCatalog(t, ds, f, ns)
			rt := shard.NewRouter(cat, shard.RouterOptions{Breaker: shard.BreakerConfig{Disable: true}})
			for si, sh := range cat.Shards() {
				lo, hi := sh.Slab()
				lo, hi = math.Max(lo, 0), math.Min(hi, 100)
				if hi-lo < a+2 {
					continue
				}
				extent := asrs.Rect{MinX: lo + 0.5, MinY: 5, MaxX: hi - 0.5, MaxY: 95}
				opt := asrs.Options{}
				resp := rt.Query(context.Background(), shard.Request{
					Query: q, A: a, B: b, TopK: 2,
					Exclude: []asrs.Rect{{MinX: lo, MinY: 40, MaxX: lo + 3, MaxY: 44}},
					Extent:  &extent, Options: &opt, Policy: shard.BestEffort,
				})
				oresp := oracle.Query(asrs.QueryRequest{
					Query: q, A: a, B: b, TopK: 2,
					Exclude: []asrs.Rect{{MinX: lo, MinY: 40, MaxX: lo + 3, MaxY: 44}},
					Within:  &extent, Options: &opt,
				})
				if (resp.Err == nil) != (oresp.Err == nil) || (resp.Err != nil && !errors.Is(resp.Err, oresp.Err)) {
					t.Fatalf("trial %d ns=%d shard %d: err mismatch: routed %v oracle %v", trial, ns, si, resp.Err, oresp.Err)
				}
				if resp.Err != nil {
					continue
				}
				if len(resp.Coverage.Searched) != 1 || resp.Coverage.Searched[0] != sh.Name() {
					t.Fatalf("trial %d ns=%d: contained extent searched %v, want exactly [%s]", trial, ns, resp.Coverage.Searched, sh.Name())
				}
				if len(resp.Regions) != len(oresp.Regions) {
					t.Fatalf("trial %d ns=%d shard %d: %d regions vs oracle %d", trial, ns, si, len(resp.Regions), len(oresp.Regions))
				}
				for i := range resp.Regions {
					if !sameRect(resp.Regions[i], oresp.Regions[i]) {
						t.Fatalf("trial %d ns=%d shard %d k=%d: region %v vs oracle %v", trial, ns, si, i, resp.Regions[i], oresp.Regions[i])
					}
					r, o := resp.Results[i], oresp.Results[i]
					if !sameBits(r.Dist, o.Dist) || !sameBits(r.Point.X, o.Point.X) || !sameBits(r.Point.Y, o.Point.Y) || !sameRep(r.Rep, o.Rep) {
						t.Fatalf("trial %d ns=%d shard %d k=%d: result %+v vs oracle %+v", trial, ns, si, i, r, o)
					}
				}
			}
		}
	}
}

// TestRoutedStraddlingBitIdentity: an extent spanning several slabs
// must gather to the merged-corpus windowed optimum — distance and
// representation bit-identical — whether or not the cross-shard shared
// pruning cap is on. The routed region must be a
// genuine optimum of the merged corpus: its anchor's representation,
// recomputed over the full corpus, reproduces the routed distance.
func TestRoutedStraddlingBitIdentity(t *testing.T) {
	checkLeaks(t)
	rng := rand.New(rand.NewSource(92))
	for trial := 0; trial < 4; trial++ {
		ds, f, q := corpus(t, 60, rng.Int63())
		a, b := 7.0, 7.0
		extent := asrs.Rect{MinX: 2, MinY: 2, MaxX: 98, MaxY: 98}
		oregion, ores, _, oerr := asrs.SearchWithin(ds, a, b, q, extent, nil, asrs.Options{})
		if oerr != nil {
			t.Fatal(oerr)
		}
		rects, err := asp.Reduce(ds, a, b, asp.AnchorTR)
		if err != nil {
			t.Fatal(err)
		}
		for _, ns := range []int{2, 3, 4} {
			cat := newCatalog(t, ds, f, ns)
			for _, share := range []bool{false, true} {
				ropt := shard.RouterOptions{Breaker: shard.BreakerConfig{Disable: true}}
				if !share {
					ropt = ropt.WithoutBoundShare()
				}
				rt := shard.NewRouter(cat, ropt)
				opt := asrs.Options{}
				resp := rt.Query(context.Background(), shard.Request{
					Query: q, A: a, B: b, Extent: &extent, Options: &opt, Policy: shard.Strict,
				})
				if resp.Err != nil {
					t.Fatalf("trial %d ns=%d share=%v: %v", trial, ns, share, resp.Err)
				}
				res := resp.Results[0]
				if !sameBits(res.Dist, ores.Dist) {
					t.Fatalf("trial %d ns=%d share=%v: dist %x vs oracle %x (%g vs %g)",
						trial, ns, share, math.Float64bits(res.Dist), math.Float64bits(ores.Dist), res.Dist, ores.Dist)
				}
				if !sameRep(res.Rep, ores.Rep) {
					t.Fatalf("trial %d ns=%d share=%v: rep %v vs oracle %v", trial, ns, share, res.Rep, ores.Rep)
				}
				// Region validity on the merged corpus: recomputing the
				// routed anchor's representation over the full corpus
				// must reproduce the routed distance exactly.
				if !extent.ContainsRect(resp.Regions[0]) {
					t.Fatalf("trial %d: routed region %v escapes extent %v", trial, resp.Regions[0], extent)
				}
				rep := asp.PointRepresentation(rects, f, res.Point)
				if d := q.Distance(rep); !sameBits(d, res.Dist) {
					t.Fatalf("trial %d ns=%d share=%v: routed region not a merged-corpus answer: %g vs %g", trial, ns, share, d, res.Dist)
				}
				_ = oregion
			}
		}
	}
}

// TestRoutedStraddlingTopK: straddling top-k rounds mirror the greedy
// single-engine rounds in distance; every returned region stays in the
// extent and regions do not overlap.
func TestRoutedStraddlingTopK(t *testing.T) {
	checkLeaks(t)
	ds, f, q := corpus(t, 50, 7)
	a, b := 8.0, 8.0
	extent := asrs.Rect{MinX: 1, MinY: 1, MaxX: 99, MaxY: 99}
	oracle, _ := asrs.Answer(ds, nil, asrs.QueryRequest{Query: q, A: a, B: b, TopK: 3, Within: &extent})
	if oracle.Err != nil {
		t.Fatal(oracle.Err)
	}
	oregions, oresults := oracle.Regions, oracle.Results
	cat := newCatalog(t, ds, f, 3)
	rt := shard.NewRouter(cat, shard.RouterOptions{Breaker: shard.BreakerConfig{Disable: true}}.WithoutBoundShare())
	resp := rt.Query(context.Background(), shard.Request{Query: q, A: a, B: b, TopK: 3, Extent: &extent})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if len(resp.Regions) != len(oregions) {
		t.Fatalf("routed %d regions, oracle %d", len(resp.Regions), len(oregions))
	}
	if !sameBits(resp.Results[0].Dist, oresults[0].Dist) {
		t.Fatalf("round 0 dist %g vs oracle %g", resp.Results[0].Dist, oresults[0].Dist)
	}
	for i, r := range resp.Regions {
		if !extent.ContainsRect(r) {
			t.Fatalf("region %d escapes extent", i)
		}
		for j := 0; j < i; j++ {
			if r.IntersectsOpen(resp.Regions[j]) {
				t.Fatalf("regions %d and %d overlap", i, j)
			}
		}
	}
}

// TestRoutedNilExtent: a nil extent means whole-corpus search; the
// routed distance must match the plain merged-corpus engine optimum.
func TestRoutedNilExtent(t *testing.T) {
	checkLeaks(t)
	ds, f, q := corpus(t, 40, 11)
	oracle, err := asrs.NewEngine(ds, asrs.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	oresp := oracle.Query(asrs.QueryRequest{Query: q, A: 6, B: 6})
	if oresp.Err != nil {
		t.Fatal(oresp.Err)
	}
	cat := newCatalog(t, ds, f, 3)
	rt := shard.NewRouter(cat, shard.RouterOptions{Breaker: shard.BreakerConfig{Disable: true}})
	resp := rt.Query(context.Background(), shard.Request{Query: q, A: 6, B: 6})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if !sameBits(resp.Results[0].Dist, oresp.Results[0].Dist) {
		t.Fatalf("nil-extent dist %g vs oracle %g", resp.Results[0].Dist, oresp.Results[0].Dist)
	}
	if !sameRep(resp.Results[0].Rep, oresp.Results[0].Rep) {
		t.Fatalf("nil-extent rep %v vs oracle %v", resp.Results[0].Rep, oresp.Results[0].Rep)
	}

	// Inserts beyond the seed hull widen the whole-corpus extent: a
	// cluster of nine at (−30, 130) is the only region of count 9.
	var extra []asrs.Object
	for i := 0; i < 9; i++ {
		extra = append(extra, obj(-30+float64(i%3)*0.5, 130+float64(i/3)*0.5, i))
	}
	if err := rt.Insert(extra); err != nil {
		t.Fatal(err)
	}
	count := agg.MustNew(ds.Schema, agg.Spec{Kind: agg.Count})
	qCount := asrs.Query{F: count, Target: []float64{9}}
	oracle, err = asrs.NewEngine(cat.CurrentDataset(), asrs.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	oresp = oracle.Query(asrs.QueryRequest{Query: qCount, A: 6, B: 6})
	resp = rt.Query(context.Background(), shard.Request{Query: qCount, A: 6, B: 6})
	if oresp.Err != nil || resp.Err != nil {
		t.Fatalf("after inserts beyond the hull: routed %v, oracle %v", resp.Err, oresp.Err)
	}
	if oresp.Results[0].Dist != 0 || !sameBits(resp.Results[0].Dist, oresp.Results[0].Dist) || !sameRep(resp.Results[0].Rep, oresp.Results[0].Rep) {
		t.Fatalf("after inserts beyond the hull: routed %+v, oracle %+v", resp.Results[0], oresp.Results[0])
	}
}

// TestRouterEdgeCases pins the boundary behaviors: a zero-width extent
// sitting exactly on a shard cut is too small, an extent ending exactly
// at a cut routes contained to the lower shard, and a catalog with
// every breaker tripped fails with the typed retryable error under both
// partial policies.
func TestRouterEdgeCases(t *testing.T) {
	checkLeaks(t)
	ds, f, q := corpus(t, 50, 13)
	a, b := 6.0, 6.0

	t.Run("zero-extent-on-boundary", func(t *testing.T) {
		cat := newCatalog(t, ds, f, 2)
		rt := shard.NewRouter(cat, shard.RouterOptions{})
		c := cat.Cuts()[0]
		extent := asrs.Rect{MinX: c, MinY: 0, MaxX: c, MaxY: 100}
		resp := rt.Query(context.Background(), shard.Request{Query: q, A: a, B: b, Extent: &extent})
		if !errors.Is(resp.Err, asrs.ErrExtentTooSmall) {
			t.Fatalf("zero-width extent on cut: got %v, want ErrExtentTooSmall", resp.Err)
		}
	})

	t.Run("non-finite-extent", func(t *testing.T) {
		cat := newCatalog(t, ds, f, 2)
		rt := shard.NewRouter(cat, shard.RouterOptions{})
		inf := math.Inf(1)
		for _, extent := range []asrs.Rect{
			{MinX: -inf, MinY: -inf, MaxX: inf, MaxY: inf},
			{MinX: 0, MinY: 0, MaxX: inf, MaxY: 100},
			{MinX: 0, MinY: math.NaN(), MaxX: 100, MaxY: 100},
		} {
			e := extent
			if resp := rt.Query(context.Background(), shard.Request{Query: q, A: a, B: b, Extent: &e}); resp.Err == nil {
				t.Fatalf("extent %v answered %v, want an error", e, resp.Regions)
			}
		}
	})

	t.Run("extent-ending-on-cut-is-contained", func(t *testing.T) {
		cat := newCatalog(t, ds, f, 2)
		rt := shard.NewRouter(cat, shard.RouterOptions{Breaker: shard.BreakerConfig{Disable: true}})
		c := cat.Cuts()[0]
		extent := asrs.Rect{MinX: c - a - 4, MinY: 10, MaxX: c, MaxY: 90}
		resp := rt.Query(context.Background(), shard.Request{Query: q, A: a, B: b, Extent: &extent})
		if resp.Err != nil {
			t.Fatal(resp.Err)
		}
		if len(resp.Coverage.Searched) != 1 || resp.Coverage.Searched[0] != "shard-0" {
			t.Fatalf("extent [.., cut] searched %v, want contained routing to shard-0", resp.Coverage.Searched)
		}
		_, ores, _, err := asrs.SearchWithin(ds, a, b, q, extent, nil, asrs.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(resp.Results[0].Dist, ores.Dist) {
			t.Fatalf("edge-contained dist %g vs oracle %g", resp.Results[0].Dist, ores.Dist)
		}
	})

	t.Run("all-shards-tripped", func(t *testing.T) {
		for _, pol := range []shard.PartialPolicy{shard.Strict, shard.BestEffort} {
			cat := newCatalog(t, ds, f, 2)
			rt := shard.NewRouter(cat, shard.RouterOptions{Breaker: shard.BreakerConfig{
				FailureThreshold: 1,
				BaseBackoff:      time.Hour,
				MaxBackoff:       time.Hour,
			}})
			for _, sh := range cat.Shards() {
				sh.Breaker().Failure()
				if st := sh.Breaker().Status(); st.State != "open" {
					t.Fatalf("breaker not open after threshold-1 failure: %+v", st)
				}
			}
			for _, extent := range []asrs.Rect{
				{MinX: 2, MinY: 2, MaxX: 98, MaxY: 98},                // straddling
				{MinX: 2, MinY: 2, MaxX: cat.Cuts()[0] - 1, MaxY: 98}, // contained
			} {
				e := extent
				resp := rt.Query(context.Background(), shard.Request{Query: q, A: a, B: b, Extent: &e, Policy: pol})
				var ue *shard.UnavailableError
				if !errors.As(resp.Err, &ue) {
					t.Fatalf("policy %s extent %v: got %v, want *UnavailableError", pol, e, resp.Err)
				}
				if !ue.Temporary() {
					t.Fatalf("UnavailableError must be retryable")
				}
				if len(ue.Skipped) == 0 {
					t.Fatalf("UnavailableError names no shards")
				}
				for _, s := range ue.Skipped {
					if s.Reason != "breaker_open" {
						t.Fatalf("skip reason %q, want breaker_open", s.Reason)
					}
				}
			}
		}
	})
}

// TestRouterInsertRouting: objects inserted through the router land on
// their owning shards and become visible to routed queries with the
// merged-corpus answer.
func TestRouterInsertRouting(t *testing.T) {
	checkLeaks(t)
	ds, f, q := corpus(t, 40, 17)
	extra := dataset.Random(20, 100, 18).Objects
	cat := newCatalog(t, ds, f, 3)
	rt := shard.NewRouter(cat, shard.RouterOptions{Breaker: shard.BreakerConfig{Disable: true}}.WithoutBoundShare())
	if err := rt.Insert(extra); err != nil {
		t.Fatal(err)
	}
	merged := cat.CurrentDataset()
	if len(merged.Objects) != len(ds.Objects)+len(extra) {
		t.Fatalf("merged corpus has %d objects, want %d", len(merged.Objects), len(ds.Objects)+len(extra))
	}
	a, b := 6.0, 6.0
	// Straddling extent: dist must match the merged-corpus oracle.
	extent := asrs.Rect{MinX: 3, MinY: 3, MaxX: 97, MaxY: 97}
	_, ores, _, err := asrs.SearchWithin(merged, a, b, q, extent, nil, asrs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	resp := rt.Query(context.Background(), shard.Request{Query: q, A: a, B: b, Extent: &extent})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if !sameBits(resp.Results[0].Dist, ores.Dist) {
		t.Fatalf("post-insert straddling dist %g vs oracle %g", resp.Results[0].Dist, ores.Dist)
	}
	// Contained extent: full bit identity against a fresh merged engine.
	sh := cat.Shards()[1]
	lo, hi := sh.Slab()
	extent = asrs.Rect{MinX: lo, MinY: 2, MaxX: hi, MaxY: 98}
	if extent.Width() >= a {
		oracle, err := asrs.NewEngine(merged, asrs.EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		oresp := oracle.Query(asrs.QueryRequest{Query: q, A: a, B: b, Within: &extent})
		resp = rt.Query(context.Background(), shard.Request{Query: q, A: a, B: b, Extent: &extent})
		if (resp.Err == nil) != (oresp.Err == nil) {
			t.Fatalf("post-insert contained err mismatch: %v vs %v", resp.Err, oresp.Err)
		}
		if resp.Err == nil {
			r, o := resp.Results[0], oresp.Results[0]
			if !sameBits(r.Dist, o.Dist) || !sameBits(r.Point.X, o.Point.X) || !sameBits(r.Point.Y, o.Point.Y) || !sameRep(r.Rep, o.Rep) {
				t.Fatalf("post-insert contained %+v vs oracle %+v", r, o)
			}
		}
	}
}

// TestShardReloadTwoCompositesAfterCrash: a shard with two registered
// composites and WAL records must come back after a crash, both
// composites answering over the recovered inserts (bench/README finding
// 2: when pyramids were stored, the second composite's stored pyramid
// described the seed slab and the shard stayed unloaded).
func TestShardReloadTwoCompositesAfterCrash(t *testing.T) {
	checkLeaks(t)
	ds, f, q := corpus(t, 80, 23)
	counts := agg.MustNew(ds.Schema, agg.Spec{Kind: agg.Count})
	qCount := asrs.Query{F: counts, Target: []float64{4}}
	dir := t.TempDir()
	cfg := shard.Config{
		Shards:     2,
		Composites: map[string]*asrs.Composite{"q": f, "n": counts},
		Names:      []string{"q", "n"},
		WALRoot:    dir + "/wal",
	}
	cat, err := shard.New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt := shard.NewRouter(cat, shard.RouterOptions{Breaker: shard.BreakerConfig{Disable: true}})
	extra := dataset.Random(30, 100, 24).Objects
	if err := rt.Insert(extra); err != nil {
		t.Fatal(err)
	}
	merged := cat.CurrentDataset()
	// Closing syncs and releases the WALs: what the next boot finds is
	// what a SIGKILL after the last ack leaves.
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}

	cat, err = shard.New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cat.Close() })
	if err := cat.WarmAll(); err != nil {
		t.Fatalf("reload after crash: %v", err)
	}
	if got := len(cat.CurrentDataset().Objects); got != len(merged.Objects) {
		t.Fatalf("reloaded corpus has %d objects, want %d", got, len(merged.Objects))
	}
	rt = shard.NewRouter(cat, shard.RouterOptions{Breaker: shard.BreakerConfig{Disable: true}})
	extent := asrs.Rect{MinX: 3, MinY: 3, MaxX: 97, MaxY: 97}
	for name, query := range map[string]asrs.Query{"q": q, "n": qCount} {
		_, want, _, err := asrs.SearchWithin(merged, 6, 6, query, extent, nil, asrs.Options{})
		if err != nil {
			t.Fatal(err)
		}
		resp := rt.Query(context.Background(), shard.Request{Query: query, A: 6, B: 6, Extent: &extent})
		if resp.Err != nil {
			t.Fatalf("composite %s after reload: %v", name, resp.Err)
		}
		if !sameBits(resp.Results[0].Dist, want.Dist) {
			t.Fatalf("composite %s after reload: dist %g, oracle %g", name, resp.Results[0].Dist, want.Dist)
		}
	}
}
