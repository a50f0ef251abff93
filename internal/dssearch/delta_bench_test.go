package dssearch_test

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"asrs/internal/agg"
	"asrs/internal/attr"
	"asrs/internal/dataset"
	"asrs/internal/dssearch"
	"asrs/internal/geom"
)

// tweetSlab is one shard's worth of the benchmark corpus: the leftmost
// x-slab of n objects of Tweet (4n objects, seed 42), in the corpus's
// own relative order, under the daemon's "day" composite.
func tweetSlab(tb testing.TB, n int) (*attr.Dataset, *agg.Composite) {
	tb.Helper()
	ds := dataset.Tweet(4*n, 42)
	xs := make([]float64, len(ds.Objects))
	for i := range ds.Objects {
		xs[i] = ds.Objects[i].Loc.X
	}
	sort.Float64s(xs)
	slab := &attr.Dataset{Schema: ds.Schema}
	for i := range ds.Objects {
		if ds.Objects[i].Loc.X < xs[n] {
			slab.Objects = append(slab.Objects, ds.Objects[i])
		}
	}
	f, err := agg.New(ds.Schema, agg.Spec{Kind: agg.Distribution, Attr: "day"})
	if err != nil {
		tb.Fatal(err)
	}
	return slab, f
}

// grown appends d objects jittered off existing ones, the way the
// shard-ingest workload draws its inserts (no anchor ties).
func grown(ds *attr.Dataset, d int) *attr.Dataset {
	rng := rand.New(rand.NewSource(1))
	out := &attr.Dataset{Schema: ds.Schema, Objects: append([]attr.Object(nil), ds.Objects...)}
	for i := 0; i < d; i++ {
		src := ds.Objects[rng.Intn(len(ds.Objects))]
		out.Objects = append(out.Objects, attr.Object{
			Loc:    geom.Point{X: src.Loc.X + (rng.Float64()-0.5)*0.1, Y: src.Loc.Y + (rng.Float64()-0.5)*0.1},
			Values: src.Values,
		})
	}
	return out
}

var pyramidSink *dssearch.Pyramid

// BenchmarkPyramidBuild is the from-scratch build the fold is measured
// against: go test -run '^$' -bench 'Pyramid(Build|DeltaFold)' -benchmem.
// tweet-slab builds one shard's pyramid, geometry included.
// second-composite is the daemon's cold boot on Singapore 50k: the
// category composite's pyramid is built (untimed), then the poi
// composite's on the same geometry, which is what is timed and counted.
// It fails if that build allocates 2 B/object beyond its core and the one
// flatten the core is permuted from — as an int32 order of its own would
// (4 B/object).
func BenchmarkPyramidBuild(b *testing.B) {
	b.Run("tweet-slab", func(b *testing.B) {
		ds, f := tweetSlab(b, 15000)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p, err := dssearch.BuildPyramid(ds, f)
			if err != nil {
				b.Fatal(err)
			}
			pyramidSink = p
		}
	})
	b.Run("second-composite", func(b *testing.B) {
		ds := dataset.SingaporeScaled(50000, 42)
		category, err1 := agg.New(ds.Schema, agg.Spec{Kind: agg.Distribution, Attr: "category"})
		poi, err2 := agg.New(ds.Schema, agg.Spec{Kind: agg.Distribution, Attr: "category"}, agg.Spec{Kind: agg.Count})
		if err := errors.Join(err1, err2); err != nil {
			b.Fatal(err)
		}
		first := func() *dssearch.Geometry {
			p, err := dssearch.BuildPyramid(ds, category)
			if err != nil {
				b.Fatal(err)
			}
			return p.Geometry()
		}
		second := func(g *dssearch.Geometry) *dssearch.Pyramid {
			p, err := dssearch.BuildPyramidOn(g, poi)
			if err != nil {
				b.Fatal(err)
			}
			if p.Geometry() != g {
				b.Fatal("the second composite's pyramid is not on the first one's geometry")
			}
			return p
		}

		// What one second build allocates, against its budget: the core
		// it keeps plus the input-order flatten, which is as large.
		g := first()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		p := second(g)
		runtime.ReadMemStats(&after)
		n := len(ds.Objects)
		extra := int(after.TotalAlloc-before.TotalAlloc) - 2*p.CoreBytes()
		if extra >= 2*n {
			b.Fatalf("the second composite's build allocates %d B beyond its core and flatten (%.1f B/object): an order of its own",
				extra, float64(extra)/float64(n))
		}

		b.ReportAllocs()
		b.ResetTimer()
		var elapsed time.Duration
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			g := first()
			b.StartTimer()
			start := time.Now()
			pyramidSink = second(g)
			elapsed += time.Since(start)
		}
		b.ReportMetric(float64(elapsed.Microseconds())/1e3/float64(b.N), "ms/op")
		b.ReportMetric(float64(extra)/float64(n), "extra-B/object")
	})
}

// BenchmarkPyramidDeltaFold folds d appended objects into the pyramid of
// the same corpus (BuildPyramidDelta, precondition checks included).
func BenchmarkPyramidDeltaFold(b *testing.B) {
	ds, f := tweetSlab(b, 15000)
	base, err := dssearch.BuildPyramid(ds, f)
	if err != nil {
		b.Fatal(err)
	}
	for _, d := range []int{1, 32, 128, 2048} {
		combined := grown(ds, d)
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, stats, err := dssearch.BuildPyramidDelta(base, combined)
				if err != nil {
					b.Fatal(err)
				}
				if !stats.Folded {
					b.Fatal("fold fell back to a rebuild")
				}
				pyramidSink = p
			}
		})
	}
}
