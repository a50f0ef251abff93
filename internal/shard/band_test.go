package shard_test

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"asrs"
	"asrs/internal/agg"
	"asrs/internal/attr"
	"asrs/internal/dataset"
	"asrs/internal/kernel"
	"asrs/internal/shard"
)

// bandWindows returns the band windows a straddling query over e reads:
// E ∩ [c−a, c+a]×ℝ for every cut strictly inside E.
func bandWindows(cat *shard.Catalog, e asrs.Rect, a float64) []asrs.Rect {
	var out []asrs.Rect
	for _, c := range cat.Cuts() {
		if e.MinX < c && c < e.MaxX {
			out = append(out, asrs.Rect{MinX: math.Max(e.MinX, c-a), MinY: e.MinY, MaxX: math.Min(e.MaxX, c+a), MaxY: e.MaxY})
		}
	}
	return out
}

// checkStraddle holds one straddling routed query to the merged-corpus
// windowed answer: the same error, or distance and representation equal
// bit for bit.
func checkStraddle(t *testing.T, rt *shard.Router, merged *asrs.Dataset, q asrs.Query, a, b float64, e asrs.Rect) {
	t.Helper()
	_, want, _, werr := asrs.SearchWithin(merged, a, b, q, e, nil, asrs.Options{})
	opt := asrs.Options{}
	resp := rt.Query(context.Background(), shard.Request{Query: q, A: a, B: b, Extent: &e, Options: &opt})
	if werr != nil || resp.Err != nil {
		if werr == nil || resp.Err == nil || werr.Error() != resp.Err.Error() {
			t.Fatalf("extent %v: routed err %v, merged err %v", e, resp.Err, werr)
		}
		return
	}
	if !strings.Contains(strings.Join(resp.Coverage.Searched, ","), "band@") {
		t.Fatalf("extent %v searched %v: no band, the extent does not straddle", e, resp.Coverage.Searched)
	}
	got := resp.Results[0]
	if !sameBits(got.Dist, want.Dist) || !sameRep(got.Rep, want.Rep) {
		t.Fatalf("extent %v: routed dist %v rep %v, merged dist %v rep %v", e, got.Dist, got.Rep, want.Dist, want.Rep)
	}
}

// checkBandCorpus holds every band of a straddling query over e to the
// merged corpus: exactly the objects with x strictly inside the band
// window, each once. With sorted set, the band must also come out sorted
// by location, as a master is.
func checkBandCorpus(t *testing.T, rt *shard.Router, merged *asrs.Dataset, f *asrs.Composite, e asrs.Rect, a float64, sorted bool) {
	t.Helper()
	key := func(o asrs.Object) string {
		return fmt.Sprintf("%x/%x/%v", math.Float64bits(o.Loc.X), math.Float64bits(o.Loc.Y), o.Values)
	}
	for _, win := range bandWindows(rt.Catalog(), e, a) {
		count := map[string]int{}
		for _, o := range merged.Objects {
			if win.MinX < o.Loc.X && o.Loc.X < win.MaxX {
				count[key(o)]++
			}
		}
		band := rt.BandCorpus(win, f).Objects
		for _, o := range band {
			count[key(o)]--
		}
		for k, n := range count {
			if n != 0 {
				t.Fatalf("band %v: object %s counted %+d against the merged corpus", win, k, -n)
			}
		}
		if sorted && !sort.SliceIsSorted(band, func(i, j int) bool {
			return band[i].Loc.X < band[j].Loc.X || (band[i].Loc.X == band[j].Loc.X && band[i].Loc.Y < band[j].Loc.Y)
		}) {
			t.Fatalf("band %v: corpus not sorted by location", win)
		}
	}
}

// obj makes a corpus object of dataset.Random's schema.
func obj(x, y float64, i int) asrs.Object {
	return asrs.Object{Loc: asrs.Point{X: x, Y: y}, Values: []attr.Value{attr.CatValue(i % 3), attr.NumValue(float64(i%7) - 3)}}
}

// slabObjects returns n objects spread over each shard's slab (clamped to
// [0, 100]), so an insert of them lands in every shard.
func slabObjects(cat *shard.Catalog, n int) []asrs.Object {
	var out []asrs.Object
	for si, sh := range cat.Shards() {
		lo, hi := sh.Slab()
		lo, hi = math.Max(lo, 0), math.Min(hi, 100)
		for i := 0; i < n; i++ {
			k := si*n + i
			out = append(out, obj(lo+(hi-lo)*(float64(i)+0.5)/float64(n), float64(7+(37*k)%86), k))
		}
	}
	return out
}

// TestBandDifferential holds straddling queries to the merged-corpus
// windowed answer, bit for bit, where a band's corpus is read in each of
// its ways, and every band's corpus to the merged corpus's window slice.
func TestBandDifferential(t *testing.T) {
	checkLeaks(t)

	t.Run("band-spans-three-shards", func(t *testing.T) {
		ds, f, q := corpus(t, 80, 31)
		cat := newCatalog(t, ds, f, 4)
		rt := shard.NewRouter(cat, shard.RouterOptions{Breaker: shard.BreakerConfig{Disable: true}})
		a, b := 30.0, 10.0
		widest := 0
		for _, e := range []asrs.Rect{{MinX: 1, MinY: 1, MaxX: 99, MaxY: 99}, {MinX: 10, MinY: 5, MaxX: 95, MaxY: 60}} {
			for _, win := range bandWindows(cat, e, a) {
				n := 0
				for _, sh := range cat.Shards() {
					if lo, hi := sh.Slab(); lo < win.MaxX && win.MinX < hi {
						n++
					}
				}
				widest = max(widest, n)
			}
			checkStraddle(t, rt, ds, q, a, b, e)
			checkBandCorpus(t, rt, ds, f, e, a, true)
		}
		if widest < 3 {
			t.Fatalf("no band met three shards (widest met %d)", widest)
		}
	})

	for _, noPyr := range []bool{false, true} {
		t.Run(fmt.Sprintf("inserts-into-every-shard/disable-pyramid=%v", noPyr), func(t *testing.T) {
			ds, f, q := corpus(t, 80, 32)
			cat, err := shard.New(ds, shard.Config{
				Shards:     4,
				Engine:     asrs.EngineOptions{DisablePyramid: noPyr},
				Composites: map[string]*asrs.Composite{"q": f},
				Names:      []string{"q"},
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cat.Close() })
			rt := shard.NewRouter(cat, shard.RouterOptions{Breaker: shard.BreakerConfig{Disable: true}})
			a, b := 7.0, 7.0
			e := asrs.Rect{MinX: 2, MinY: 2, MaxX: 98, MaxY: 98}
			checkStraddle(t, rt, ds, q, a, b, e)
			for round := 0; round < 2; round++ {
				if err := rt.Insert(slabObjects(cat, 6)); err != nil {
					t.Fatal(err)
				}
				merged := cat.CurrentDataset()
				checkStraddle(t, rt, merged, q, a, b, e)
				checkBandCorpus(t, rt, merged, f, e, a, !noPyr)
			}
			for _, sh := range cat.Shards() {
				st := sh.Loaded().Stats()
				if noPyr && st.Pyramids != 0 {
					t.Fatalf("%s built %d pyramids with pyramids disabled", sh.Name(), st.Pyramids)
				}
				if !noPyr && st.PyramidFolds < 2 {
					t.Fatalf("%s folded %d epoch pyramids, want 2", sh.Name(), st.PyramidFolds)
				}
			}
		})
	}

	for _, noPyr := range []bool{false, true} {
		t.Run(fmt.Sprintf("objects-on-edges-and-cuts/disable-pyramid=%v", noPyr), func(t *testing.T) {
			edgesAndCuts(t, noPyr)
		})
	}
}

// edgesAndCuts is TestBandDifferential's case of objects exactly on a
// band window's edges, on the extent's edge and on the cut.
func edgesAndCuts(t *testing.T, noPyr bool) {
	ds := dataset.Random(40, 100, 33)
	a, b := 8.0, 8.0
	e := asrs.Rect{MinX: 45, MinY: 1, MaxX: 99, MaxY: 99}
	// Band window [45, 58]: objects on its two edges, on the cut and
	// on the extent's edge, some in a cluster only a region straddling
	// the cut covers.
	var extra []asrs.Object
	for i, x := range []float64{45, 58, 50, 50, 50, 50, 50, 42, 45, 58} {
		extra = append(extra, obj(x, 40+float64(i%5), i))
	}
	ds.Objects = append(ds.Objects, extra...)
	count := agg.MustNew(ds.Schema, agg.Spec{Kind: agg.Count})
	f := agg.MustNew(ds.Schema,
		agg.Spec{Kind: agg.Distribution, Attr: "cat"},
		agg.Spec{Kind: agg.Sum, Attr: "val"},
	)
	cat, err := shard.New(ds, shard.Config{
		Cuts:       []float64{50},
		Engine:     asrs.EngineOptions{DisablePyramid: noPyr},
		Composites: map[string]*asrs.Composite{"n": count, "q": f},
		Names:      []string{"n", "q"},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cat.Close() })
	rt := shard.NewRouter(cat, shard.RouterOptions{Breaker: shard.BreakerConfig{Disable: true}})
	for _, query := range []asrs.Query{
		{F: count, Target: []float64{5}},
		{F: f, Target: []float64{1, 2, 1, 5}},
	} {
		checkStraddle(t, rt, ds, query, a, b, e)
		checkBandCorpus(t, rt, ds, query.F, e, a, !noPyr)
	}
	if err := rt.Insert([]asrs.Object{obj(50, 43.5, 1), obj(58, 41.5, 2), obj(45, 42.5, 3)}); err != nil {
		t.Fatal(err)
	}
	merged := cat.CurrentDataset()
	checkStraddle(t, rt, merged, asrs.Query{F: count, Target: []float64{6}}, a, b, e)
	checkBandCorpus(t, rt, merged, count, e, a, !noPyr)
}

// TestBandBestEffortUnloadableShard: with one shard unable to load, a
// best-effort straddling query answers from the other shards and every
// band, which reads the lost shard's seed slab — the Better-minimum of
// the merged corpus's windowed answers over exactly those sub-extents.
func TestBandBestEffortUnloadableShard(t *testing.T) {
	checkLeaks(t)
	ds, f, q := corpus(t, 90, 34)
	root := t.TempDir()
	// A file where shard-1's WAL directory belongs: its engine cannot open.
	if err := os.WriteFile(filepath.Join(root, "shard-1"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cat, err := shard.New(ds, shard.Config{
		Shards:     3,
		WALRoot:    root,
		Composites: map[string]*asrs.Composite{"q": f},
		Names:      []string{"q"},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cat.Close() })
	rt := shard.NewRouter(cat, shard.RouterOptions{Breaker: shard.BreakerConfig{Disable: true}})
	lost := cat.Shards()[1]
	var extra []asrs.Object
	for _, o := range slabObjects(cat, 5) {
		if cat.ShardFor(o.Loc.X) != lost.Index() {
			extra = append(extra, o)
		}
	}
	if err := rt.Insert(extra); err != nil {
		t.Fatal(err)
	}
	merged := &asrs.Dataset{Schema: ds.Schema, Objects: append(append([]asrs.Object(nil), ds.Objects...), extra...)}

	a, b := 9.0, 9.0
	for _, e := range []asrs.Rect{{MinX: 2, MinY: 2, MaxX: 98, MaxY: 98}, {MinX: 20, MinY: 10, MaxX: 80, MaxY: 90}} {
		resp := rt.Query(context.Background(), shard.Request{Query: q, A: a, B: b, Extent: &e, Policy: shard.BestEffort})
		if resp.Err != nil {
			t.Fatalf("extent %v: %v", e, resp.Err)
		}
		if len(resp.Coverage.Skipped) != 1 || resp.Coverage.Skipped[0].Shard != lost.Name() || !strings.HasPrefix(resp.Coverage.Skipped[0].Reason, "load:") {
			t.Fatalf("extent %v: skipped %+v, want exactly %s on load", e, resp.Coverage.Skipped, lost.Name())
		}
		wins := bandWindows(cat, e, a)
		for _, sh := range cat.Shards() {
			lo, hi := sh.Slab()
			if sh != lost && math.Max(e.MinX, lo) <= math.Min(e.MaxX, hi) {
				wins = append(wins, asrs.Rect{MinX: math.Max(e.MinX, lo), MinY: e.MinY, MaxX: math.Min(e.MaxX, hi), MaxY: e.MaxY})
			}
		}
		var want asrs.Result
		found := false
		for _, w := range wins {
			if _, res, _, err := asrs.SearchWithin(merged, a, b, q, w, nil, asrs.Options{}); err == nil && (!found || kernel.Better(res, want)) {
				want, found = res, true
			}
		}
		got := resp.Results[0]
		if !found || !sameBits(got.Dist, want.Dist) || !sameRep(got.Rep, want.Rep) {
			t.Fatalf("extent %v: best-effort dist %v rep %v, surviving sub-extents' minimum %v rep %v", e, got.Dist, got.Rep, want.Dist, want.Rep)
		}
		checkBandCorpus(t, rt, merged, f, e, a, false)
	}
}

// TestBandReadsRecoveredInserts: the first straddling query after a
// restart, before any shard has loaded, must see the inserts each shard
// recovers from its WAL in its bands as well as in its own sub-search.
func TestBandReadsRecoveredInserts(t *testing.T) {
	checkLeaks(t)
	ds := dataset.Random(60, 100, 5)
	count := agg.MustNew(ds.Schema, agg.Spec{Kind: agg.Count})
	q := asrs.Query{F: count, Target: []float64{30}}
	cfg := shard.Config{
		Shards:     2,
		WALRoot:    t.TempDir(),
		Composites: map[string]*asrs.Composite{"n": count},
		Names:      []string{"n"},
	}
	cat, err := shard.New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt := shard.NewRouter(cat, shard.RouterOptions{Breaker: shard.BreakerConfig{Disable: true}})
	c := cat.Cuts()[0]
	var extra []asrs.Object
	for i := 0; i < 30; i++ {
		extra = append(extra, obj(c+(float64(i%6)-2.5)*0.3, 50+(float64(i/6)-2)*0.3, i))
	}
	if err := rt.Insert(extra); err != nil {
		t.Fatal(err)
	}
	merged := cat.CurrentDataset()
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}

	cat, err = shard.New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cat.Close() })
	rt = shard.NewRouter(cat, shard.RouterOptions{Breaker: shard.BreakerConfig{Disable: true}})
	e := asrs.Rect{MinX: 2, MinY: 2, MaxX: 98, MaxY: 98}
	checkStraddle(t, rt, merged, q, 6, 6, e)
}

// TestBandConcurrentQueries runs straddling queries from several
// goroutines at once over one router, whose band searches share its slab
// cache (run it with -race): every answer stays the merged-corpus one.
func TestBandConcurrentQueries(t *testing.T) {
	checkLeaks(t)
	ds, f, q := corpus(t, 120, 35)
	cat := newCatalog(t, ds, f, 4)
	rt := shard.NewRouter(cat, shard.RouterOptions{Breaker: shard.BreakerConfig{Disable: true}})
	if err := rt.Insert(slabObjects(cat, 4)); err != nil {
		t.Fatal(err)
	}
	merged := cat.CurrentDataset()
	a, b := 6.0, 6.0
	extents := []asrs.Rect{{MinX: 2, MinY: 2, MaxX: 98, MaxY: 98}, {MinX: 20, MinY: 10, MaxX: 80, MaxY: 70}, {MinX: 5, MinY: 30, MaxX: 95, MaxY: 60}}
	want := make([]asrs.Result, len(extents))
	for i, e := range extents {
		_, res, _, err := asrs.SearchWithin(merged, a, b, q, e, nil, asrs.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 6; n++ {
				i := (g + n) % len(extents)
				resp := rt.Query(context.Background(), shard.Request{Query: q, A: a, B: b, Extent: &extents[i]})
				if resp.Err != nil {
					t.Errorf("extent %v: %v", extents[i], resp.Err)
					return
				}
				if got := resp.Results[0]; !sameBits(got.Dist, want[i].Dist) || !sameRep(got.Rep, want[i].Rep) {
					t.Errorf("extent %v: routed %v %v, merged %v %v", extents[i], got.Dist, got.Rep, want[i].Dist, want[i].Rep)
					return
				}
			}
		}()
	}
	wg.Wait()
}
