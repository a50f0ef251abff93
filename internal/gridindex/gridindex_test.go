package gridindex_test

import (
	"math"
	"math/rand"
	"testing"

	"asrs/internal/agg"
	"asrs/internal/asp"
	"asrs/internal/attr"
	"asrs/internal/dataset"
	"asrs/internal/dssearch"
	"asrs/internal/geom"
	"asrs/internal/gridindex"
	"asrs/internal/sweep"
)

func testComposite(t testing.TB, ds *attr.Dataset) *agg.Composite {
	t.Helper()
	f, err := agg.New(ds.Schema,
		agg.Spec{Kind: agg.Distribution, Attr: "cat"},
		agg.Spec{Kind: agg.Average, Attr: "val"},
		agg.Spec{Kind: agg.Sum, Attr: "val"},
	)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func randomTarget(f *agg.Composite, rng *rand.Rand) asp.Query {
	target := make([]float64, f.Dims())
	w := make([]float64, f.Dims())
	for i := range target {
		target[i] = rng.NormFloat64() * 3
		w[i] = 0.1 + rng.Float64()
	}
	return asp.Query{F: f, Target: target, W: w}
}

// TestLemma8 validates RegionChannels against a direct object scan for
// random cell ranges.
func TestLemma8(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds := dataset.Random(300, 80, 2)
	f := testComposite(t, ds)
	const sx, sy = 13, 9
	idx, err := gridindex.Build(ds, f, sx, sy)
	if err != nil {
		t.Fatal(err)
	}
	bounds := idx.Bounds()
	cw := bounds.Width() / sx
	ch := bounds.Height() / sy

	got := make([]float64, f.Channels())
	want := make([]float64, f.Channels())
	var cbuf []agg.Contrib
	for trial := 0; trial < 200; trial++ {
		l, r := rng.Intn(sx+1), rng.Intn(sx+1)
		b, tt := rng.Intn(sy+1), rng.Intn(sy+1)
		if l > r {
			l, r = r, l
		}
		if b > tt {
			b, tt = tt, b
		}
		idx.RegionChannels(l, r, b, tt, got)

		for i := range want {
			want[i] = 0
		}
		for oi := range ds.Objects {
			o := &ds.Objects[oi]
			ci := int((o.Loc.X - bounds.MinX) / cw)
			cj := int((o.Loc.Y - bounds.MinY) / ch)
			if ci >= sx {
				ci = sx - 1
			}
			if cj >= sy {
				cj = sy - 1
			}
			if ci < l || ci >= r || cj < b || cj >= tt {
				continue
			}
			cbuf = f.AppendContribs(o, cbuf[:0])
			for _, cb := range cbuf {
				want[cb.Ch] += cb.V
			}
		}
		for chn := range got {
			if math.Abs(got[chn]-want[chn]) > 1e-6 {
				t.Fatalf("trial %d range [%d,%d)x[%d,%d) ch %d: %g vs %g", trial, l, r, b, tt, chn, got[chn], want[chn])
			}
		}
	}
}

// TestCellLowerBoundsSound: the lower bound of an index cell, and of a
// range of cells, must not exceed the true distance of any candidate
// region whose bl corner lies in it. The ranges are sampled over the grid
// continued left of and below its origin by the virtual cells that tile
// the margin strips, and include ranges that reach the last column or
// row, whose clamped boundary objects shrink the inside range; query
// sizes run from below one cell to several.
func TestCellLowerBoundsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds := dataset.Random(120, 60, 4)
	f := testComposite(t, ds)
	const g = 8
	idx, err := gridindex.Build(ds, f, g, g)
	if err != nil {
		t.Fatal(err)
	}
	bounds := idx.Bounds()
	cw, ch := bounds.Width()/g, bounds.Height()/g
	for _, ab := range [][2]float64{{11, 13}, {3, 4.5}, {26, 19}} {
		a, b := ab[0], ab[1]
		q := randomTarget(f, rng)
		rects, _ := asp.Reduce(ds, a, b, asp.AnchorTR)
		dist := func(p geom.Point) float64 { return q.Distance(asp.PointRepresentation(rects, f, p)) }

		lbs := idx.CellLowerBounds(q, a, b)
		for trial := 0; trial < 500; trial++ {
			p := geom.Point{
				X: bounds.MinX + rng.Float64()*bounds.Width(),
				Y: bounds.MinY + rng.Float64()*bounds.Height(),
			}
			ci := min(int((p.X-bounds.MinX)/cw), g-1)
			cj := min(int((p.Y-bounds.MinY)/ch), g-1)
			if lb, d := lbs[cj*g+ci], dist(p); lb > d+1e-9 {
				t.Fatalf("%gx%g cell (%d,%d): lb %g > true distance %g at %v", a, b, ci, cj, lb, d, p)
			}
		}

		// Ranges [i0,i1)×[j0,j1) with corners from three virtual columns
		// (rows) left of (below) the grid to its last one; a third of them
		// are made to reach the last column or row. Besides the random
		// target, each range is bounded for the target one of its points
		// attains exactly, which a bound that counts too much as covered
		// by every region of the range exceeds.
		for trial := 0; trial < 300; trial++ {
			i0, j0 := rng.Intn(g+3)-3, rng.Intn(g+3)-3
			i1, j1 := i0+1+rng.Intn(g-i0), j0+1+rng.Intn(g-j0)
			switch trial % 3 {
			case 1:
				i1 = g
			case 2:
				j1 = g
			}
			x0, y0 := bounds.MinX+float64(i0)*cw, bounds.MinY+float64(j0)*ch
			x1, y1 := bounds.MinX+float64(i1)*cw, bounds.MinY+float64(j1)*ch
			sample := func(s int) geom.Point {
				p := geom.Point{X: x0 + rng.Float64()*(x1-x0), Y: y0 + rng.Float64()*(y1-y0)}
				switch s {
				case 0:
					p = geom.Point{X: x0, Y: y0}
				case 1:
					// The last cell of an axis is closed: its far edge is a
					// candidate too.
					if i1 == g {
						p.X = bounds.MaxX
					}
					if j1 == g {
						p.Y = bounds.MaxY
					}
				}
				return p
			}
			lb := idx.RangeLowerBound(q, a, b, i0, i1, j0, j1)
			for s := 0; s < 20; s++ {
				if p := sample(s); lb > dist(p)+1e-9 {
					t.Fatalf("%gx%g range [%d,%d)x[%d,%d): lb %g > true distance %g at %v", a, b, i0, i1, j0, j1, lb, dist(p), p)
				}
			}
			p := sample(trial % 4)
			exact := asp.Query{F: f, Target: asp.PointRepresentation(rects, f, p), W: q.W}
			if lb := idx.RangeLowerBound(exact, a, b, i0, i1, j0, j1); lb > 1e-9 {
				t.Fatalf("%gx%g range [%d,%d)x[%d,%d): lb %g for the target %v attains exactly", a, b, i0, i1, j0, j1, lb, p)
			}
		}
	}
}

// TestGIDSMatchesSweep: GI-DS must return the sweep's optimum, bit for
// bit, on random instances, for several granularities — and on a lattice
// of zeros with one object of value −1e−10, whose Sum a cell bound that
// clamped small negative totals to 0 would bound above the optimum.
func TestGIDSMatchesSweep(t *testing.T) {
	type instance struct {
		ds   *attr.Dataset
		q    asp.Query
		a, b float64
	}
	rng := rand.New(rand.NewSource(5))
	var cases []instance
	for trial := 0; trial < 25; trial++ {
		ds := dataset.Random(1+rng.Intn(60), 50, rng.Int63())
		f := testComposite(t, ds)
		a := 2 + rng.Float64()*12
		b := 2 + rng.Float64()*12
		cases = append(cases, instance{ds, randomTarget(f, rng), a, b})
	}
	lattice := &attr.Dataset{Schema: attr.MustSchema(attr.Attribute{Name: "v", Kind: attr.Numeric})}
	for i := 0; i < 100; i++ {
		lattice.Objects = append(lattice.Objects, attr.Object{Loc: geom.Point{X: float64(i%10) * 10, Y: float64(i/10) * 10}, Values: []attr.Value{{Num: 0}}})
	}
	lattice.Objects = append(lattice.Objects, attr.Object{Loc: geom.Point{X: 45, Y: 45}, Values: []attr.Value{{Num: -1e-10}}})
	sum := agg.MustNew(lattice.Schema, agg.Spec{Kind: agg.Sum, Attr: "v"})
	cases = append(cases, instance{lattice, asp.Query{F: sum, Target: []float64{-1e-10}, W: []float64{1}}, 3, 3})

	for i, c := range cases {
		rects, _ := asp.Reduce(c.ds, c.a, c.b, asp.AnchorTR)
		sw, err := sweep.New(rects, c.q)
		if err != nil {
			t.Fatal(err)
		}
		want := sw.Solve()
		for _, g := range []int{4, 8, 16} {
			idx, err := gridindex.Build(c.ds, c.q.F, g, g)
			if err != nil {
				t.Fatal(err)
			}
			got, stats, err := gridindex.Solve(idx, c.ds, c.q, c.a, c.b, nil, dssearch.Options{NCol: 10, NRow: 10})
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got.Dist) != math.Float64bits(want.Dist) {
				t.Fatalf("instance %d g=%d: GI-DS %g vs sweep %g (stats %+v)", i, g, got.Dist, want.Dist, stats)
			}
			if stats.Cells != g*g {
				t.Fatalf("cells considered %d, want %d", stats.Cells, g*g)
			}
		}
	}
}

// TestGIDSPrunes: on a clustered instance with a seeded strong optimum,
// GI-DS should search only a fraction of the cells (Table 1's point).
func TestGIDSPrunes(t *testing.T) {
	ds := dataset.Random(800, 100, 9)
	f := testComposite(t, ds)
	a, b := 5.0, 5.0
	// Target the empty region: distance 0 is found immediately, so cells
	// with any object nearby are pruned.
	q := asp.Query{F: f, Target: make([]float64, f.Dims()), W: agg.UnitWeights(f.Dims())}
	idx, _ := gridindex.Build(ds, f, 32, 32)
	_, stats, err := gridindex.Solve(idx, ds, q, a, b, nil, dssearch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.CellsSearched > stats.Cells/2 {
		t.Fatalf("searched %d of %d cells; pruning ineffective", stats.CellsSearched, stats.Cells)
	}
}

// TestGIDSApproxGuarantee: app-GIDS respects (1+δ).
func TestGIDSApproxGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 15; trial++ {
		ds := dataset.Random(1+rng.Intn(50), 50, rng.Int63())
		f := testComposite(t, ds)
		a, b := 7.0, 6.0
		rects, _ := asp.Reduce(ds, a, b, asp.AnchorTR)
		q := randomTarget(f, rng)
		sw, _ := sweep.New(rects, q)
		opt := sw.Solve().Dist
		idx, _ := gridindex.Build(ds, f, 8, 8)
		for _, delta := range []float64{0.1, 0.3} {
			got, _, err := gridindex.Solve(idx, ds, q, a, b, nil, dssearch.Options{Delta: delta})
			if err != nil {
				t.Fatal(err)
			}
			if got.Dist > (1+delta)*opt+1e-9 {
				t.Fatalf("trial %d δ=%g: %g violates (1+δ)·%g", trial, delta, got.Dist, opt)
			}
		}
	}
}

func TestIndexValidation(t *testing.T) {
	ds := dataset.Random(10, 10, 12)
	f := testComposite(t, ds)
	if _, err := gridindex.Build(ds, f, 0, 4); err == nil {
		t.Error("zero granularity accepted")
	}
	if _, err := gridindex.Build(ds, nil, 4, 4); err == nil {
		t.Error("nil composite accepted")
	}
	bad := &attr.Dataset{Schema: ds.Schema, Objects: []attr.Object{{Loc: geom.Point{}, Values: nil}}}
	if _, err := gridindex.Build(bad, f, 4, 4); err == nil {
		t.Error("invalid dataset accepted")
	}
	if _, err := gridindex.New(nil, 4, 4); err == nil {
		t.Error("nil pyramid accepted")
	}
}

func TestSolveValidation(t *testing.T) {
	ds := dataset.Random(10, 10, 13)
	f := testComposite(t, ds)
	idx, _ := gridindex.Build(ds, f, 4, 4)
	other := testComposite(t, ds)
	q2 := randomTarget(other, rand.New(rand.NewSource(2)))
	if _, _, err := gridindex.Solve(idx, ds, q2, 2, 2, nil, dssearch.Options{}); err == nil {
		t.Error("mismatched composite accepted")
	}
}

func TestEmptyDatasetIndex(t *testing.T) {
	ds := &attr.Dataset{Schema: dataset.Random(1, 1, 1).Schema}
	f := testComposite(t, ds)
	idx, err := gridindex.Build(ds, f, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	q := asp.Query{F: f, Target: make([]float64, f.Dims())}
	res, _, err := gridindex.Solve(idx, ds, q, 1, 1, nil, dssearch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist != 0 {
		t.Fatalf("empty dataset: dist %g", res.Dist)
	}
}

func TestIndexSizeGrowsWithGranularity(t *testing.T) {
	ds := dataset.Random(2000, 100, 14)
	f := testComposite(t, ds)
	var prev int
	for _, g := range []int{8, 16, 32} {
		idx, _ := gridindex.Build(ds, f, g, g)
		size := idx.SizeBytes()
		if size <= prev {
			t.Fatalf("granularity %d: size %d not larger than %d", g, size, prev)
		}
		prev = size
	}
}

func TestCellRect(t *testing.T) {
	ds := dataset.Random(50, 64, 15)
	f := testComposite(t, ds)
	idx, _ := gridindex.Build(ds, f, 8, 8)
	union := geom.EmptyRect()
	for j := 0; j < 8; j++ {
		for i := 0; i < 8; i++ {
			union = union.Union(idx.CellRect(i, j))
		}
	}
	b := idx.Bounds()
	if math.Abs(union.MinX-b.MinX) > 1e-9 || math.Abs(union.MaxX-b.MaxX) > 1e-9 ||
		math.Abs(union.MinY-b.MinY) > 1e-9 || math.Abs(union.MaxY-b.MaxY) > 1e-9 {
		t.Fatalf("cells union %v != bounds %v", union, b)
	}
}
