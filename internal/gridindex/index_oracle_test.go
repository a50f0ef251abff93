package gridindex_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"asrs"
	"asrs/internal/agg"
	"asrs/internal/attr"
	"asrs/internal/dataset"
	"asrs/internal/dssearch"
	"asrs/internal/geom"
	"asrs/internal/gridindex"
	"asrs/internal/persist"
)

// checkAgainstReference holds idx, an index of ds for f at g×g, to the
// dataset-flattening builder kept as the oracle (ReferenceIndex): the
// bounds, the suffix tables and the per-cell minima and maxima bit for
// bit, and the bounds to ds.Bounds().
func checkAgainstReference(t *testing.T, name string, idx *gridindex.Index, ds *attr.Dataset, f *agg.Composite, g int) {
	t.Helper()
	want, err := gridindex.ReferenceIndex(ds, f, g, g)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := gridindex.SameTables(idx, want); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(ds.Objects) == 0 {
		return
	}
	got, box := idx.Bounds(), ds.Bounds()
	if math.Float64bits(got.MinX) != math.Float64bits(box.MinX) || math.Float64bits(got.MinY) != math.Float64bits(box.MinY) {
		t.Fatalf("%s: the index's minimum corner %v is not ds.Bounds()' %v", name, got, box)
	}
	if box.MaxX > box.MinX && math.Float64bits(got.MaxX) != math.Float64bits(box.MaxX) ||
		box.MaxY > box.MinY && math.Float64bits(got.MaxY) != math.Float64bits(box.MaxY) {
		t.Fatalf("%s: the index's maximum corner %v is not ds.Bounds()' %v", name, got, box)
	}
}

// oracleCorpus is one dataset with the composites its index is built for.
type oracleCorpus struct {
	name string
	ds   *attr.Dataset
	fs   []*agg.Composite
}

func oracleCorpora() []oracleCorpus {
	sg := dataset.SingaporeScaled(4000, 42)
	tw := dataset.Tweet(4000, 42)
	poi := dataset.POISyn(3000, 42)
	return []oracleCorpus{
		{"singapore", sg, []*agg.Composite{
			agg.MustNew(sg.Schema, agg.Spec{Kind: agg.Distribution, Attr: "category"}),
			agg.MustNew(sg.Schema, agg.Spec{Kind: agg.Distribution, Attr: "category"}, agg.Spec{Kind: agg.Count}),
		}},
		{"tweet", tw, []*agg.Composite{agg.MustNew(tw.Schema, agg.Spec{Kind: agg.Distribution, Attr: "day"})}},
		{"poisyn", poi, []*agg.Composite{agg.MustNew(poi.Schema,
			agg.Spec{Kind: agg.Sum, Attr: "visits"}, agg.Spec{Kind: agg.Average, Attr: "rating"})}},
	}
}

// insertBlocks draws count blocks of size objects jittered off ds's, the
// way the shard-ingest workload draws its inserts.
func insertBlocks(ds *attr.Dataset, count, size int, seed int64) [][]attr.Object {
	rng := rand.New(rand.NewSource(seed))
	blocks := make([][]attr.Object, count)
	for b := range blocks {
		for i := 0; i < size; i++ {
			src := ds.Objects[rng.Intn(len(ds.Objects))]
			blocks[b] = append(blocks[b], attr.Object{
				Loc:    geom.Point{X: src.Loc.X + (rng.Float64()-0.5)*0.01, Y: src.Loc.Y + (rng.Float64()-0.5)*0.01},
				Values: src.Values,
			})
		}
	}
	return blocks
}

// TestIndexMatchesFlatteningBuilder: an index that bins a pyramid's core
// has the tables of the dataset-flattening builder, bit for bit, whether
// the pyramid was built, loaded from its file or folded after insert
// blocks, and so does an Engine's index with pyramids and without them,
// before and after inserts — at grids 16, 64 and 128.
func TestIndexMatchesFlatteningBuilder(t *testing.T) {
	for _, c := range oracleCorpora() {
		blocks := insertBlocks(c.ds, 3, 150, 9)
		for _, f := range c.fs {
			built, err := dssearch.BuildPyramid(c.ds, f)
			if err != nil {
				t.Fatal(err)
			}
			var file bytes.Buffer
			if _, err := persist.WritePyramid(&file, built); err != nil {
				t.Fatal(err)
			}
			loaded, err := persist.ReadPyramid(&file, c.ds, f)
			if err != nil {
				t.Fatal(err)
			}
			pyramids := []struct {
				name string
				p    *dssearch.Pyramid
				ds   *attr.Dataset
			}{{"built", built, c.ds}, {"loaded", loaded, c.ds}}
			folded, grown := built, c.ds
			for b, block := range blocks {
				grown = &attr.Dataset{Schema: grown.Schema, Objects: append(append([]attr.Object(nil), grown.Objects...), block...)}
				if folded, _, err = dssearch.BuildPyramidDelta(folded, grown); err != nil {
					t.Fatal(err)
				}
				pyramids = append(pyramids, struct {
					name string
					p    *dssearch.Pyramid
					ds   *attr.Dataset
				}{fmt.Sprintf("folded-%d", b+1), folded, grown})
			}
			for _, g := range []int{16, 64, 128} {
				for _, p := range pyramids {
					idx, err := gridindex.New(p.p, g, g)
					if err != nil {
						t.Fatal(err)
					}
					checkAgainstReference(t, fmt.Sprintf("%s/%d-channel/%s/g=%d", c.name, f.Channels(), p.name, g), idx, p.ds, f, g)
				}
			}
			for _, disable := range []bool{false, true} {
				e, err := asrs.NewEngine(c.ds, asrs.EngineOptions{IndexGranularity: 64, DisablePyramid: disable})
				if err != nil {
					t.Fatal(err)
				}
				combined := c.ds
				for b := 0; b <= len(blocks); b++ {
					if b > 0 {
						if err := e.InsertBatch(blocks[b-1]); err != nil {
							t.Fatal(err)
						}
						combined = &attr.Dataset{Schema: combined.Schema, Objects: append(append([]attr.Object(nil), combined.Objects...), blocks[b-1]...)}
					}
					idx, err := e.Index(f)
					if err != nil {
						t.Fatal(err)
					}
					checkAgainstReference(t, fmt.Sprintf("%s/%d-channel/engine(DisablePyramid=%v)/after %d blocks", c.name, f.Channels(), disable, b), idx, combined, f, 64)
				}
			}
		}
	}
}

// TestIndexMatchesFlatteningBuilderDegenerate: so do the indexes of
// corpora whose bounds are degenerate along an axis — one object, objects
// on a vertical or a horizontal line, whose extent unitAt makes up — and
// of corpora whose extreme x (or y) is held by both +0 and −0, where the
// master order's last tied anchor is not the one ds.Bounds() keeps.
func TestIndexMatchesFlatteningBuilderDegenerate(t *testing.T) {
	schema := attr.MustSchema(attr.Attribute{Name: "v", Kind: attr.Numeric})
	f := agg.MustNew(schema, agg.Spec{Kind: agg.Sum, Attr: "v"}, agg.Spec{Kind: agg.Average, Attr: "v"})
	negZero := math.Copysign(0, -1)
	rng := rand.New(rand.NewSource(41))
	corpus := func(pts ...geom.Point) *attr.Dataset {
		ds := &attr.Dataset{Schema: schema}
		for _, p := range pts {
			ds.Objects = append(ds.Objects, attr.Object{Loc: p, Values: []attr.Value{{Num: float64(rng.Intn(9) + 1)}}})
		}
		return ds
	}
	line := func(vertical bool) *attr.Dataset {
		var pts []geom.Point
		for i := 0; i < 40; i++ {
			v := float64(rng.Intn(25))
			if vertical {
				pts = append(pts, geom.Point{X: 1e6, Y: v})
			} else {
				pts = append(pts, geom.Point{X: v, Y: -3})
			}
		}
		return corpus(pts...)
	}
	for _, c := range []struct {
		name string
		ds   *attr.Dataset
	}{
		{"empty", corpus()},
		{"one-object", corpus(geom.Point{X: 3, Y: 4})},
		{"vertical-line", line(true)},
		{"horizontal-line", line(false)},
		{"max-x-signed-zeros", corpus(geom.Point{X: -2, Y: 1}, geom.Point{X: 0, Y: 0}, geom.Point{X: negZero, Y: 1}, geom.Point{X: -1, Y: 5})},
		{"max-x-signed-zeros-reversed", corpus(geom.Point{X: -2, Y: 1}, geom.Point{X: negZero, Y: 0}, geom.Point{X: 0, Y: 1}, geom.Point{X: -1, Y: 5})},
		{"min-y-signed-zeros", corpus(geom.Point{X: 1, Y: 0}, geom.Point{X: 2, Y: negZero}, geom.Point{X: 0, Y: 3}, geom.Point{X: 4, Y: 0})},
	} {
		for _, g := range []int{1, 4, 16} {
			idx, err := gridindex.Build(c.ds, f, g, g)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstReference(t, fmt.Sprintf("%s/g=%d", c.name, g), idx, c.ds, f, g)
		}
	}
}
