package gridindex_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"asrs"
	"asrs/internal/agg"
	"asrs/internal/asp"
	"asrs/internal/attr"
	"asrs/internal/dssearch"
	"asrs/internal/geom"
	"asrs/internal/gridindex"
)

var marginSchema = attr.MustSchema(
	attr.Attribute{Name: "cat", Kind: attr.Categorical, Domain: []string{"a", "b", "c"}},
	attr.Attribute{Name: "val", Kind: attr.Numeric},
)

// marginCorpus draws n objects in [0, 100)², a third of them snapped to a
// lattice (duplicate locations, shared rectangle edges).
func marginCorpus(rng *rand.Rand, n int, num func() float64) *attr.Dataset {
	objs := make([]attr.Object, n)
	for i := range objs {
		x, y := rng.Float64()*100, rng.Float64()*100
		if rng.Intn(3) == 0 {
			x, y = float64(rng.Intn(20))*5, float64(rng.Intn(20))*5
		}
		objs[i] = attr.Object{Loc: geom.Point{X: x, Y: y}, Values: []attr.Value{attr.CatValue(rng.Intn(3)), attr.NumValue(num())}}
	}
	return &attr.Dataset{Schema: marginSchema, Objects: objs}
}

// stripMinimum is the least distance over the arrangement points of the
// rectangles inside a strip: on every axis each edge coordinate and a
// point between each two neighbours, kept where the strip's half-open
// range [lo, hi) holds it (a point on the bounds' minimum belongs to the
// first column or row of cells, not to the strip).
func stripMinimum(rects []asp.RectObject, q asp.Query, x0, x1, y0, y1 float64) float64 {
	axis := func(lo, hi float64, edges func(r geom.Rect) (float64, float64)) []float64 {
		cuts := []float64{lo}
		for _, r := range rects {
			e0, e1 := edges(r.Rect)
			cuts = append(cuts, e0, e1)
		}
		slices.Sort(cuts)
		cuts = slices.Compact(cuts)
		var out []float64
		for i, c := range cuts {
			if c >= lo && c < hi {
				out = append(out, c)
			}
			next := hi
			if i+1 < len(cuts) {
				next = math.Min(cuts[i+1], hi)
			}
			if m := c + (next-c)/2; m > c && m >= lo && m < hi {
				out = append(out, m)
			}
		}
		return out
	}
	xs := axis(x0, x1, func(r geom.Rect) (float64, float64) { return r.MinX, r.MaxX })
	ys := axis(y0, y1, func(r geom.Rect) (float64, float64) { return r.MinY, r.MaxY })
	best := math.Inf(1)
	for _, x := range xs {
		for _, y := range ys {
			best = math.Min(best, q.Distance(asp.PointRepresentation(rects, q.F, geom.Point{X: x, Y: y})))
		}
	}
	return best
}

// TestMarginBoundsSound holds the bound GI-DS gives each margin strip to
// the brute-force minimum distance over the strip's arrangement points —
// integer, two-limb decimal and min/max composites; grids 1 to 16; a and
// b below one cell, several cells wide and beyond the bounds — and every
// answer, with and without exclusions that swallow part of a strip, to
// SearchBaseline.
func TestMarginBoundsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	kinds := []struct {
		name  string
		specs []agg.Spec
		num   func() float64
	}{
		{"integer-fD", []agg.Spec{{Kind: agg.Distribution, Attr: "cat"}}, func() float64 { return 0 }},
		{"decimal-fS", []agg.Spec{{Kind: agg.Sum, Attr: "val"}, {Kind: agg.Count}}, func() float64 { return 0.1 * float64(1+rng.Intn(99)) }},
		{"fS+fA", []agg.Spec{{Kind: agg.Sum, Attr: "val"}, {Kind: agg.Average, Attr: "val"}}, func() float64 { return float64(rng.Intn(41)) * 0.25 }},
	}
	sizes := [][2]float64{{0.8, 1.7}, {4, 3}, {23, 31}, {9, 140}, {260, 120}}
	if testing.Short() {
		sizes = sizes[1:4]
	}
	for _, kind := range kinds {
		f := agg.MustNew(marginSchema, kind.specs...)
		for _, grid := range []int{1, 3, 8, 16} {
			for _, ab := range sizes {
				a, b := ab[0], ab[1]
				name := fmt.Sprintf("%s/grid=%d/%gx%g", kind.name, grid, a, b)
				ds := marginCorpus(rng, 12+rng.Intn(30), kind.num)
				idx, err := gridindex.New(ds, f, grid, grid)
				if err != nil {
					t.Fatal(err)
				}
				// A target some region comes close to: what an a×b box holds,
				// or, so that a region reaching over all of the corpus is not
				// the only kind that scores, a smaller one.
				o := ds.Objects[rng.Intn(len(ds.Objects))].Loc
				ta, tb := a, b
				if rng.Intn(2) == 0 {
					ta, tb = math.Min(a, 25), math.Min(b, 25)
				}
				target := f.Representation(ds, agg.OpenRect{MinX: o.X - ta/3, MinY: o.Y - tb/3, MaxX: o.X + 2*ta/3, MaxY: o.Y + 2*tb/3})
				for i := range target {
					target[i] += rng.Float64()
				}
				q := asp.Query{F: f, Target: target}
				rects, err := asp.Reduce(ds, a, b, asp.AnchorTR)
				if err != nil {
					t.Fatal(err)
				}
				space, bounds := asp.Space(rects), idx.Bounds()
				exclusions := [][]geom.Rect{
					nil,
					// The lower half of the left strip and some cells beside it.
					{{MinX: space.MinX - 1, MinY: space.MinY - 1, MaxX: bounds.MinX + a/2, MaxY: space.MinY + space.Height()/2}},
					// A slab through the middle of the bottom strip.
					{{MinX: bounds.MinX + 40, MinY: space.MinY - 1, MaxX: bounds.MinX + 60, MaxY: bounds.MinY + b/3}},
				}
				for ei, excl := range exclusions {
					got, st, err := gridindex.Solve(idx, ds, q, a, b, excl, dssearch.Options{Workers: 1})
					if err != nil {
						t.Fatal(err)
					}
					want := asrs.SearchBaseline(ds, asrs.QueryRequest{Query: q, A: a, B: b, Exclude: excl})
					if want.Err != nil {
						t.Fatal(want.Err)
					}
					w := want.Results[0].Dist
					if math.Float64bits(got.Dist) != math.Float64bits(w) {
						t.Fatalf("%s excl %d: GI-DS answers %v at %v, SearchBaseline %v at %v (stats %+v)", name, ei, got.Dist, got.Point, w, want.Results[0].Point, st)
					}
					if st.MarginRuns+st.MarginsSkipped < 2 && len(excl) == 0 {
						t.Fatalf("%s: %d margin runs and %d strips skipped: a strip was lost", name, st.MarginRuns, st.MarginsSkipped)
					}
					if ei > 0 {
						continue
					}
					left := stripMinimum(rects, q, space.MinX, bounds.MinX, space.MinY, math.Nextafter(space.MaxY, math.Inf(1)))
					bottom := stripMinimum(rects, q, bounds.MinX, math.Nextafter(space.MaxX, math.Inf(1)), space.MinY, bounds.MinY)
					if st.LeftMarginLB > left+1e-9 {
						t.Fatalf("%s: left strip bounded at %v, a point of it is at %v", name, st.LeftMarginLB, left)
					}
					if st.BottomMarginLB > bottom+1e-9 {
						t.Fatalf("%s: bottom strip bounded at %v, a point of it is at %v", name, st.BottomMarginLB, bottom)
					}
				}
			}
		}
	}
}

// TestMarginOrder builds the three positions a strip can take in the
// best-first order and holds each answer to SearchBaseline: the optimum
// lies in a strip, which must be searched; no strip is searched at all;
// a strip's bound ties the cheapest cell's, and the strip goes first.
func TestMarginOrder(t *testing.T) {
	f := agg.MustNew(marginSchema, agg.Spec{Kind: agg.Distribution, Attr: "cat"})
	at := func(x, y float64, cat int) attr.Object {
		return attr.Object{Loc: geom.Point{X: x, Y: y}, Values: []attr.Value{attr.CatValue(cat), attr.NumValue(0)}}
	}
	// A 10×10 lattice of "a" objects, a tight cluster of four "b" in its
	// middle, and one "c", the corpus's leftmost object.
	var objs []attr.Object
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			objs = append(objs, at(10+8*float64(i), 10+8*float64(j), 0))
		}
	}
	for k := 0; k < 4; k++ {
		objs = append(objs, at(49+0.5*float64(k%2), 49+0.5*float64(k/2), 1))
	}
	objs = append(objs, at(1, 50, 2))
	ds := &attr.Dataset{Schema: marginSchema, Objects: objs}
	idx, err := gridindex.New(ds, f, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	solve := func(a, b float64, target ...float64) (asp.Result, gridindex.Stats, []float64) {
		q := asp.Query{F: f, Target: target}
		got, st, err := gridindex.Solve(idx, ds, q, a, b, nil, dssearch.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := asrs.SearchBaseline(ds, asrs.QueryRequest{Query: q, A: a, B: b})
		if want.Err != nil {
			t.Fatal(want.Err)
		}
		if math.Float64bits(got.Dist) != math.Float64bits(want.Results[0].Dist) {
			t.Fatalf("%gx%g target %v: GI-DS answers %v, SearchBaseline %v (stats %+v)", a, b, target, got.Dist, want.Results[0].Dist, st)
		}
		return got, st, idx.CellLowerBounds(q, a, b)
	}

	// Only a region around the leftmost object holds a "c" and nothing
	// else, and the bottom-left corner of every such region lies left of
	// the bounds.
	got, st, _ := solve(3, 3, 0, 0, 1)
	if got.Dist != 0 || got.Point.X >= idx.Bounds().MinX || st.MarginRuns == 0 {
		t.Fatalf("optimum in the left strip: distance %v at %v after %d margin runs", got.Dist, got.Point, st.MarginRuns)
	}

	// Four "b" and nothing else: the cluster's cell is bounded at 0 and
	// holds the target; no region of a strip reaches the cluster.
	got, st, _ = solve(3, 3, 0, 4, 0)
	if got.Dist != 0 || st.MarginRuns != 0 || st.MarginsSkipped != 2 || st.CellsSearched == 0 {
		t.Fatalf("optimum in a cell at distance %v: %d margin runs, %d strips skipped, %d cells searched; want 0, 2 and some", got.Dist, st.MarginRuns, st.MarginsSkipped, st.CellsSearched)
	}
	if st.LeftMarginLB <= 0 || st.BottomMarginLB <= 0 {
		t.Fatalf("strip bounds %v and %v: want both above the optimum's 0", st.LeftMarginLB, st.BottomMarginLB)
	}

	// One "a" and nothing else: regions of the bottom strip hold it, and so
	// do regions in cells, all bounded at 0. The strip goes before the cells
	// of equal bound, attains 0, and the search ends without a cell.
	got, st, lbs := solve(3, 3, 1, 0, 0)
	if cheapest := slices.Min(lbs); st.BottomMarginLB != cheapest || cheapest != 0 {
		t.Fatalf("bottom strip bounded at %v, the cheapest cell at %v: want a tie at 0", st.BottomMarginLB, cheapest)
	}
	if got.Dist != 0 || st.MarginRuns == 0 || st.CellsSearched != 0 {
		t.Fatalf("strip tied with the cheapest cell: distance %v after %d margin runs and %d cells; want the strip alone", got.Dist, st.MarginRuns, st.CellsSearched)
	}

	// A query wider than the bounds — there are no more virtual columns than
	// the grid has real ones, and the farthest answers for all that lies
	// beyond it. Four "a" and the "c": only a region that reaches the
	// lattice's first column from far left holds that, further left than
	// the columns tile; regions nearer cover whole lattice rows.
	got, st, _ = solve(200, 30, 4, 0, 1)
	if got.Dist != 0 || st.MarginRuns == 0 || st.LeftMarginLB != 0 {
		t.Fatalf("optimum beyond the tiled part of the left strip: distance %v after %d margin runs, the strip bounded at %v", got.Dist, st.MarginRuns, st.LeftMarginLB)
	}
}
