package gridindex_test

import (
	"math"
	"testing"

	"asrs"
	"asrs/internal/agg"
	"asrs/internal/asp"
	"asrs/internal/attr"
	"asrs/internal/dataset"
	"asrs/internal/dssearch"
	"asrs/internal/geom"
	"asrs/internal/gridindex"
	"asrs/internal/sweep"
)

// TestGIDSExcludingMatchesPlain holds GI-DS under exclusions to plain
// DS-Search over space minus the same exclusions (asrs.Answer without an
// index, k = 1), round by round of a greedy top-4 whose exclusion chain both
// sides are handed: the distances must agree bit for bit. Small corpora are also held to a brute-force sweep over the
// un-excluded anchors. Each corpus runs bare and under explicit
// exclusions built from the index geometry: one covering a 3×3 block of
// index cells around the unconstrained optimum and ending exactly on cell
// edges, one swallowing the left margin strip, one swallowing the whole
// space (the empty covering set must answer).
func TestGIDSExcludingMatchesPlain(t *testing.T) {
	f1 := func(ds *attr.Dataset, a, b float64) (asp.Query, error) { return dataset.F1(ds, a, b) }
	f2 := func(ds *attr.Dataset, a, b float64) (asp.Query, error) { return dataset.F2(ds, a, b) }
	orchard := dataset.SingaporeDistricts()[0].Rect
	byExample := func(ds *attr.Dataset, _, _ float64) (asp.Query, error) {
		f, err := agg.New(ds.Schema, agg.Spec{Kind: agg.Distribution, Attr: "category"})
		if err != nil {
			return asp.Query{}, err
		}
		o := agg.OpenRect{MinX: orchard.MinX, MinY: orchard.MinY, MaxX: orchard.MaxX, MaxY: orchard.MaxY}
		return asp.Query{F: f, Target: f.Representation(ds, o)}, nil
	}
	unit := func(k float64) func(*attr.Dataset) (float64, float64) {
		return func(ds *attr.Dataset) (float64, float64) {
			ua, ub := dataset.QueryUnit(ds.Bounds())
			return k * ua, k * ub
		}
	}
	cases := []struct {
		name  string
		ds    *attr.Dataset
		size  func(*attr.Dataset) (float64, float64)
		query func(ds *attr.Dataset, a, b float64) (asp.Query, error)
		grid  int
		also  *geom.Rect // excluded in every run (the example region)
	}{
		{name: "tweet-f1-600", ds: dataset.Tweet(600, 7), size: unit(40), query: f1, grid: 16},
		{name: "tweet-f1-3000", ds: dataset.Tweet(3000, 42), size: unit(16), query: f1, grid: 32},
		{name: "singapore-category-600", ds: dataset.SingaporeScaled(600, 42),
			size:  func(*attr.Dataset) (float64, float64) { return orchard.Width(), orchard.Height() },
			query: byExample, grid: 16, also: &orchard},
		{name: "poisyn-f2-600", ds: dataset.POISyn(600, 3), size: unit(60), query: f2, grid: 16},
		{name: "poisyn-f2-2500", ds: dataset.POISyn(2500, 42), size: unit(30), query: f2, grid: 32},
	}
	cellsExcluded, cellsCut := 0, 0
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds := tc.ds
			if testing.Short() && len(ds.Objects) > 600 {
				t.Skip("the larger corpora repeat the small ones' geometry; skipped under -short (race detector)")
			}
			a, b := tc.size(ds)
			q, err := tc.query(ds, a, b)
			if err != nil {
				t.Fatal(err)
			}
			idx, err := gridindex.Build(ds, q.F, tc.grid, tc.grid)
			if err != nil {
				t.Fatal(err)
			}
			reduce := func() []asp.RectObject {
				rects, err := asp.Reduce(ds, a, b, asp.AnchorTR)
				if err != nil {
					t.Fatal(err)
				}
				return rects
			}
			space := asp.Space(reduce())
			gids := func(excl []geom.Rect) (asp.Result, gridindex.Stats) {
				res, st, err := gridindex.Solve(idx, ds, q, a, b, excl, dssearch.Options{})
				if err != nil {
					t.Fatal(err)
				}
				return res, st
			}

			// The explicit exclusions.
			free, _ := gids(nil)
			bounds := idx.Bounds()
			cw, chh := bounds.Width()/float64(tc.grid), bounds.Height()/float64(tc.grid)
			ci := min(max(int((free.Point.X-bounds.MinX)/cw), 1), tc.grid-2)
			cj := min(max(int((free.Point.Y-bounds.MinY)/chh), 1), tc.grid-2)
			block := idx.CellRect(ci-1, cj-1)
			block.MaxX, block.MaxY = idx.CellRect(ci+1, cj+1).MaxX, idx.CellRect(ci+1, cj+1).MaxY
			explicit := []struct {
				name string
				excl []geom.Rect
			}{
				{"bare", nil},
				{"cell-block", []geom.Rect{block}},
				{"left-margin", []geom.Rect{{MinX: bounds.MinX - 1, MinY: space.MinY - 1, MaxX: bounds.MinX + cw/3, MaxY: space.MaxY + b + 1}}},
				{"whole-space", []geom.Rect{{MinX: space.MinX - 1, MinY: space.MinY - 1, MaxX: space.MaxX + a + 1, MaxY: space.MaxY + b + 1}}},
			}
			var sw *sweep.Solver
			if len(ds.Objects) <= 600 {
				if sw, err = sweep.New(reduce(), q); err != nil {
					t.Fatal(err)
				}
			}
			for _, ex := range explicit {
				excl := append([]geom.Rect(nil), ex.excl...)
				if tc.also != nil {
					excl = append(excl, *tc.also)
				}
				rounds := 4
				if testing.Short() {
					rounds = 2
				}
				if ex.name == "whole-space" {
					rounds = 1
				}
				for round := 0; round < rounds; round++ {
					plain, _ := asrs.Answer(ds, nil, asrs.QueryRequest{Query: q, A: a, B: b, Exclude: excl})
					if plain.Err != nil {
						t.Fatal(plain.Err)
					}
					wantRegion, want := plain.Best()
					got, st := gids(excl)
					if math.Float64bits(got.Dist) != math.Float64bits(want.Dist) {
						t.Fatalf("%s round %d: GI-DS answers %v at %v, plain DS-Search %v at %v (stats %+v)",
							ex.name, round, got.Dist, got.Point, want.Dist, want.Point, st)
					}
					region := asp.AnchorTR.RegionFor(got.Point, a, b)
					for _, e := range excl {
						if region.IntersectsOpen(e) {
							t.Fatalf("%s round %d: GI-DS region %v overlaps excluded %v", ex.name, round, region, e)
						}
					}
					if st.Pieces < st.MarginRuns+st.CellsSearched {
						t.Fatalf("%s round %d: %d pieces for %d margin runs and %d cells searched", ex.name, round, st.Pieces, st.MarginRuns, st.CellsSearched)
					}
					if ex.name == "whole-space" && (st.Pieces != 0 || got.Point != asp.EmptyCandidate(space)) {
						t.Fatalf("whole space excluded: %d pieces searched, answer at %v, want the empty candidate %v", st.Pieces, got.Point, asp.EmptyCandidate(space))
					}
					cellsExcluded += st.CellsExcluded
					cellsCut += st.Pieces - st.MarginRuns - st.CellsSearched
					if sw != nil {
						// Brute force: the empty covering set, then every piece of
						// the space the exclusions leave.
						best := q.Distance(asp.PointRepresentation(reduce(), q.F, asp.EmptyCandidate(space)))
						for _, p := range dssearch.AppendPieces(nil, space, dssearch.ForbiddenBoxes(excl, a, b)) {
							if r, ok := sw.SolveWithin(p); ok && r.Dist < best {
								best = r.Dist
							}
						}
						// The sweep and the searches sum every channel as exact
						// limbs, in whatever order: the distances agree bit for bit.
						if math.Float64bits(best) != math.Float64bits(want.Dist) {
							t.Fatalf("%s round %d: brute force over the un-excluded anchors finds %v, the searches %v", ex.name, round, best, want.Dist)
						}
					}
					excl = append(excl, wantRegion)
				}
			}
		})
	}
	if cellsExcluded == 0 || cellsCut == 0 {
		t.Fatalf("exclusions never met the cell loop: %d cells wholly excluded, %d extra pieces from cut cells; want both", cellsExcluded, cellsCut)
	}
}
