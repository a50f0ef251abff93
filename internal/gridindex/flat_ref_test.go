package gridindex

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"asrs/internal/agg"
	"asrs/internal/asp"
	"asrs/internal/attr"
	"asrs/internal/dataset"
	"asrs/internal/dssearch"
	"asrs/internal/geom"
)

// solveFlat is GI-DS with every cell bounded before the loop starts, the
// form Solve replaced: the cells are taken in (bound, row, column) order —
// a stable sort of the row-major bounds — with the margin strips placed
// among them by the same rule, and each cell taken is reported to visit.
func solveFlat(idx *Index, ds *attr.Dataset, q asp.Query, a, b float64, exclude []geom.Rect, opt dssearch.Options, visit func(i, j int)) (asp.Result, error) {
	pl, err := dssearch.Compile(ds, q, opt.Pyramid)
	if err != nil {
		return asp.Result{}, err
	}
	defer pl.Release()
	searcher, err := dssearch.NewRegionSearcher(pl, a, b, opt)
	if err != nil {
		return asp.Result{}, err
	}
	defer searcher.Release()
	space := searcher.Space()
	emptyP := asp.EmptyCandidate(space)
	emptyRep := searcher.PointRepresentation(emptyP)
	searcher.SeedBest(asp.Result{Point: emptyP, Dist: q.Distance(emptyRep), Rep: emptyRep})
	if searcher.Objects() > 0 {
		forbidden := dssearch.ForbiddenBoxes(exclude, a, b)
		sc := idx.getLBScratch()
		defer idx.putLBScratch(sc)
		var st Stats
		pending := idx.strips(nil, space, a, b, pl.Bound(), sc, &st)
		if len(pending) == 2 && pending[1].lb < pending[0].lb {
			pending[0], pending[1] = pending[1], pending[0]
		}
		lbs := idx.CellLowerBounds(q, a, b)
		order := make([]int, len(lbs))
		for k := range order {
			order[k] = k
		}
		sort.SliceStable(order, func(x, y int) bool { return lbs[order[x]] < lbs[order[y]] })
		var pieces []geom.Rect
		var sub []int32
		for next := 0; (len(pending) > 0 || next < len(order)) && searcher.Err() == nil; {
			thresh := searcher.Best().Dist
			if opt.Delta > 0 {
				thresh /= 1 + opt.Delta
			}
			if len(pending) > 0 && (next == len(order) || pending[0].lb <= lbs[order[next]]) {
				m := pending[0]
				if m.lb >= thresh {
					break
				}
				pending = pending[1:]
				for _, p := range dssearch.AppendPieces(pieces[:0], m.rect, forbidden) {
					sub = searcher.AppendWindowIDs(p, sub[:0])
					searcher.SolveCell(p, m.lb, sub, math.Inf(-1))
				}
				continue
			}
			k := order[next]
			next++
			if lbs[k] >= thresh {
				break
			}
			i, j := k%idx.sx, k/idx.sx
			visit(i, j)
			pieces = dssearch.AppendPieces(pieces[:0], idx.CellRect(i, j), forbidden)
			for _, p := range pieces {
				sub = searcher.AppendWindowIDs(p, sub[:0])
				searcher.SolveCell(p, lbs[k], sub, math.Inf(-1))
			}
		}
	}
	if err := searcher.Err(); err != nil {
		return asp.Result{}, err
	}
	best := searcher.Best()
	best.Rep = searcher.PointRepresentation(best.Point)
	best.Dist = q.Distance(best.Rep)
	return best, nil
}

// TestLazyCellOrderMatchesFlat holds the lazily split range heap to the
// flat pass. On an fD composite with half-integer targets — where many
// cells tie at the integrality floor, and which cells a search takes
// before one attains the floor depends on their order — the lazy loop
// takes the same cells in the same order and answers at the same point.
// On F2, whose average slot makes a range's own bound fall below its
// parent's at times, the distances are Float64bits-equal.
func TestLazyCellOrderMatchesFlat(t *testing.T) {
	type cell struct{ i, j int }
	run := func(t *testing.T, name string, ds *attr.Dataset, q asp.Query, a, b float64, excl []geom.Rect, grid int, sameOrder bool) {
		t.Helper()
		idx, err := Build(ds, q.F, grid, grid)
		if err != nil {
			t.Fatal(err)
		}
		var lazy, flat []cell
		got, st, err := SolveVisiting(idx, ds, q, a, b, excl, dssearch.Options{}, func(i, j int) { lazy = append(lazy, cell{i, j}) })
		if err != nil {
			t.Fatal(err)
		}
		want, err := solveFlat(idx, ds, q, a, b, excl, dssearch.Options{}, func(i, j int) { flat = append(flat, cell{i, j}) })
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.Dist) != math.Float64bits(want.Dist) {
			t.Fatalf("%s: lazy bounds answer %v, the flat pass %v", name, got.Dist, want.Dist)
		}
		if st.Bounded >= grid*grid {
			t.Fatalf("%s: %d ranges bounded for %d cells", name, st.Bounded, grid*grid)
		}
		if !sameOrder {
			return
		}
		if got.Point != want.Point {
			t.Fatalf("%s: lazy bounds answer at %v, the flat pass at %v", name, got.Point, want.Point)
		}
		if len(lazy) != len(flat) {
			t.Fatalf("%s: lazy bounds take %d cells, the flat pass %d", name, len(lazy), len(flat))
		}
		for k := range lazy {
			if lazy[k] != flat[k] {
				t.Fatalf("%s: cell %d of %d taken is %v, the flat pass takes %v", name, k, len(lazy), lazy[k], flat[k])
			}
		}
	}

	t.Run("category", func(t *testing.T) {
		ds := dataset.SingaporeScaled(8000, 42)
		f := agg.MustNew(ds.Schema, agg.Spec{Kind: agg.Distribution, Attr: "category"})
		bounds := ds.Bounds()
		pool := rand.New(rand.NewSource(29))
		for k := 0; k < 16; k++ {
			div := []float64{24, 28, 32, 40}[k%4]
			a, b := bounds.Width()/div, bounds.Height()/div
			o := ds.Objects[pool.Intn(len(ds.Objects))].Loc
			target := f.Representation(ds, agg.OpenRect{MinX: o.X - a/2, MinY: o.Y - b/2, MaxX: o.X + a/2, MaxY: o.Y + b/2})
			for i := range target {
				target[i] = math.Trunc(target[i]*1.1) + 0.5
			}
			var excl []geom.Rect
			if k%3 == 2 {
				excl = []geom.Rect{{MinX: o.X - a, MinY: o.Y - b, MaxX: o.X + a, MaxY: o.Y + b}}
			}
			run(t, "category", ds, asp.Query{F: f, Target: target}, a, b, excl, 64, true)
		}
	})

	t.Run("F2", func(t *testing.T) {
		ds := dataset.POISyn(3000, 42)
		ua, ub := dataset.QueryUnit(ds.Bounds())
		for k, size := range []float64{10, 20, 45} {
			a, b := size*ua, size*ub
			q, err := dataset.F2(ds, a, b)
			if err != nil {
				t.Fatal(err)
			}
			if q.F.MinMaxSlots() == 0 {
				t.Fatal("F2 has no min/max slot")
			}
			var excl []geom.Rect
			if k == 1 {
				c := ds.Objects[7].Loc
				excl = []geom.Rect{{MinX: c.X - a, MinY: c.Y - b, MaxX: c.X + a, MaxY: c.Y + b}}
			}
			for _, grid := range []int{16, 64} {
				run(t, "F2", ds, q, a, b, excl, grid, false)
			}
		}
	})
}
