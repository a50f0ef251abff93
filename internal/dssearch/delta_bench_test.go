package dssearch_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

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
func BenchmarkPyramidBuild(b *testing.B) {
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
