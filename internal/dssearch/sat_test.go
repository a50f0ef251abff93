package dssearch

import (
	"math"
	"math/rand"
	"testing"

	"asrs/internal/agg"
	"asrs/internal/asp"
	"asrs/internal/attr"
	"asrs/internal/geom"
)

// satSchema builds an integer-exact composite: fD over a categorical
// attribute plus fC and fS over small integer values — every channel
// contribution is an integer, so the SAT fill must be bit-identical to
// the difference-array fill.
func satSchema(t *testing.T) (*attr.Schema, *agg.Composite) {
	t.Helper()
	schema, err := attr.NewSchema(
		attr.Attribute{Name: "cat", Kind: attr.Categorical, Domain: []string{"a", "b", "c"}},
		attr.Attribute{Name: "val", Kind: attr.Numeric},
	)
	if err != nil {
		t.Fatal(err)
	}
	f, err := agg.New(schema,
		agg.Spec{Kind: agg.Distribution, Attr: "cat"},
		agg.Spec{Kind: agg.Count},
		agg.Spec{Kind: agg.Sum, Attr: "val"},
	)
	if err != nil {
		t.Fatal(err)
	}
	return schema, f
}

// satRects builds a randomized uniform-size rect set with plenty of
// duplicate and boundary-aligned coordinates. width/height <= 0 produce
// degenerate zero-extent rectangles.
func satRects(rng *rand.Rand, schema *attr.Schema, n int, w, h float64) []asp.RectObject {
	objs := make([]attr.Object, n)
	rects := make([]asp.RectObject, n)
	for i := range rects {
		// Snap a share of the anchors to a coarse lattice so rect edges
		// collide exactly with each other and with grid cell edges.
		x := rng.Float64() * 100
		y := rng.Float64() * 100
		if rng.Intn(2) == 0 {
			x = float64(rng.Intn(20)) * 5
			y = float64(rng.Intn(20)) * 5
		}
		objs[i] = attr.Object{
			Loc: geom.Point{X: x, Y: y},
			Values: []attr.Value{
				{Cat: rng.Intn(3)},
				{Num: float64(rng.Intn(11) - 5)},
			},
		}
		rects[i] = asp.RectObject{
			Rect: geom.Rect{MinX: x - w, MinY: y - h, MaxX: x, MaxY: y},
			Obj:  &objs[i],
		}
	}
	return rects
}

// fillBoth runs the difference-array fill and the SAT fill on the same
// space and returns the cell totals (full channels, partial channels,
// partial counts) of each. clip plays kernel.Item.Clip's role: the id
// subset is filtered by it (as the ancestor chain would), and the SAT
// fill clamps against it; pass clip == space for the root case.
func fillBoth(t *testing.T, rects []asp.RectObject, f *agg.Composite, space, clip geom.Rect, ncol, nrow int) (diffFull, diffPart, diffCnt, satFull, satPart, satCnt []float64) {
	t.Helper()
	q := asp.Query{F: f, Target: make([]float64, f.Dims())}
	s, err := NewSearcher(rects, q, Options{NCol: ncol, NRow: nrow})
	if err != nil {
		t.Fatal(err)
	}
	if !s.tab.satUsable() {
		t.Fatal("composite should be integer-exact and SAT-usable")
	}
	w := s.workers[0]
	w.grid = newGridBuffers(ncol, nrow, f, s.tab.eff)
	g := w.grid
	ids := s.AppendWindowIDs(clip, nil)

	cw := space.Width() / float64(ncol)
	chh := space.Height() / float64(nrow)
	g.setEdges(space, cw, chh)

	grab := func() (fu, pa, cn []float64) {
		cells := gridCells(g)
		return cells[0], cells[1], cells[2]
	}
	w.refFillGridDiff(space, ids, cw, chh)
	diffFull, diffPart, diffCnt = grab()
	s.tab.ensureLevels(s.rects)
	w.fillGridSAT(clip, nil)
	satFull, satPart, satCnt = grab()
	return
}

// TestSATFillBitIdentical is the property test of DESIGN.md §2: on
// randomized rectangle sets over an integer-exact composite, the SAT
// fill's per-cell full/partial channel totals and partial-cover counts
// are bit-identical to the difference-array fill's, including degenerate
// zero-extent rectangles and edges exactly on cell boundaries under the
// open-coverage semantics of DESIGN.md §1.
func TestSATFillBitIdentical(t *testing.T) {
	schema, f := satSchema(t)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		n := 30 + rng.Intn(400)
		w := []float64{7.5, 5, 12.3, 0}[trial%4] // 0: degenerate zero-area
		h := []float64{6, 5, 0.7, 0}[trial%4]
		rects := satRects(rng, schema, n, w, h)

		// Spaces: the full extent, a sub-space with lattice-aligned edges
		// (cell edges collide with rect edges exactly), a random one, and
		// a sub-ulp-per-cell sliver whose grid rows collapse to zero
		// height — the case where "fully covers" no longer implies
		// "overlaps" and the two fills historically diverged.
		spaces := []geom.Rect{
			asp.Space(rects),
			{MinX: 10, MinY: 5, MaxX: 70, MaxY: 65},
			{MinX: rng.Float64() * 40, MinY: rng.Float64() * 40, MaxX: 60 + rng.Float64()*40, MaxY: 60 + rng.Float64()*40},
			{MinX: 5, MinY: 40 - 1e-13, MaxX: 95, MaxY: 40 + 1e-13},
		}
		ncol := 2 + rng.Intn(12)
		nrow := 2 + rng.Intn(12)
		for si, space := range spaces {
			// Alternate between the root case (clip == space) and a clip
			// strictly tighter than the space's upper edges — the shape
			// the ancestor chain produces when a child cell MBR overshoots
			// its parent by an ulp (kernel.Item.Clip). The id subset is
			// clip-filtered either way, so the two fills must still agree.
			clip := space
			if si%2 == 1 {
				clip.MaxX = space.MaxX - space.Width()*1e-13
				clip.MaxY = space.MaxY - space.Height()*5e-14
			}
			df, dp, dc, sf, sp, sc := fillBoth(t, rects, f, space, clip, ncol, nrow)
			for i := range dc {
				if math.Float64bits(dc[i]) != math.Float64bits(sc[i]) {
					t.Fatalf("trial %d space %d: cell %d partial count diff=%v sat=%v", trial, si, i, dc[i], sc[i])
				}
			}
			for i := range df {
				if math.Float64bits(df[i]) != math.Float64bits(sf[i]) {
					t.Fatalf("trial %d space %d: full[%d] diff=%v sat=%v", trial, si, i, df[i], sf[i])
				}
				if math.Float64bits(dp[i]) != math.Float64bits(sp[i]) {
					t.Fatalf("trial %d space %d: part[%d] diff=%v sat=%v", trial, si, i, dp[i], sp[i])
				}
			}
		}
	}
}

// TestSATNotUsableForUnsplittableChannels: composites whose
// contributions defeat both the plain fixed-point certificate and the
// two-float fallback (denormal tails on both signs) must keep the
// difference-array path and the original master order.
func TestSATNotUsableForUnsplittableChannels(t *testing.T) {
	schema, err := attr.NewSchema(attr.Attribute{Name: "v", Kind: attr.Numeric})
	if err != nil {
		t.Fatal(err)
	}
	f, err := agg.New(schema, agg.Spec{Kind: agg.Sum, Attr: "v"})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	objs := make([]attr.Object, 50)
	rects := make([]asp.RectObject, 50)
	for i := range rects {
		x, y := rng.Float64()*10, rng.Float64()*10
		v := rng.NormFloat64()
		switch i % 8 {
		case 0:
			v = 5e-324
		case 3:
			v = -5e-324
		}
		objs[i] = attr.Object{Loc: geom.Point{X: x, Y: y}, Values: []attr.Value{{Num: v}}}
		rects[i] = asp.RectObject{Rect: geom.Rect{MinX: x - 1, MinY: y - 1, MaxX: x, MaxY: y}, Obj: &objs[i]}
	}
	q := asp.Query{F: f, Target: []float64{0}}
	s, err := NewSearcher(rects, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.tab.allExact || s.tab.anyExact || s.tab.sorted || s.tab.satUsable() {
		t.Fatalf("unsplittable composite must not enable the SAT layer: allExact=%v anyExact=%v", s.tab.allExact, s.tab.anyExact)
	}
	for i := range rects {
		if s.rects[i].Obj != rects[i].Obj {
			t.Fatal("master order changed for an unsplittable composite")
		}
	}
}
