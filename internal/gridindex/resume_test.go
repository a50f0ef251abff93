package gridindex_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"asrs"
	"asrs/internal/agg"
	"asrs/internal/asp"
	"asrs/internal/attr"
	"asrs/internal/dataset"
	"asrs/internal/dssearch"
	"asrs/internal/geom"
	"asrs/internal/gridindex"
)

// resumeCase is one corpus, query and grid of the resumed-round tests.
type resumeCase struct {
	name  string
	ds    *attr.Dataset
	q     asp.Query
	a, b  float64
	grid  int
	also  *geom.Rect // the example region, excluded in every round
	small bool       // few enough objects for SearchBaseline
	mix   bool       // dense enough that resumed rounds discretize cells beside those they record
}

// resumeCases builds Tweet F1, POISyn F2 and the Singapore category
// composite by example, each at n = 40 (held to SearchBaseline too) and
// at n = 600, and POISyn F2 at n = 2 000 on a grid of 4, whose cells hold
// too many edged rectangles for the terminal rule to sweep them all.
func resumeCases(t *testing.T) []resumeCase {
	t.Helper()
	orchard := dataset.SingaporeDistricts()[0].Rect
	unit := func(ds *attr.Dataset, k float64) (float64, float64) {
		ua, ub := dataset.QueryUnit(ds.Bounds())
		return k * ua, k * ub
	}
	var out []resumeCase
	for _, n := range []int{40, 600} {
		grid := 16
		if n <= 40 {
			grid = 8
		}
		tweet := dataset.Tweet(n, 7)
		ta, tb := unit(tweet, 40)
		f1, err := dataset.F1(tweet, ta, tb)
		if err != nil {
			t.Fatal(err)
		}
		poi := dataset.POISyn(n, 3)
		pa, pb := unit(poi, 60)
		f2, err := dataset.F2(poi, pa, pb)
		if err != nil {
			t.Fatal(err)
		}
		sg := dataset.SingaporeScaled(n, 42)
		f, err := agg.New(sg.Schema, agg.Spec{Kind: agg.Distribution, Attr: "category"})
		if err != nil {
			t.Fatal(err)
		}
		o := agg.OpenRect{MinX: orchard.MinX, MinY: orchard.MinY, MaxX: orchard.MaxX, MaxY: orchard.MaxY}
		fd := asp.Query{F: f, Target: f.Representation(sg, o)}
		out = append(out,
			resumeCase{name: fmt.Sprintf("tweet-f1-%d", n), ds: tweet, q: f1, a: ta, b: tb, grid: grid, small: n <= 40},
			resumeCase{name: fmt.Sprintf("poisyn-f2-%d", n), ds: poi, q: f2, a: pa, b: pb, grid: grid, small: n <= 40},
			resumeCase{name: fmt.Sprintf("singapore-category-%d", n), ds: sg, q: fd, a: orchard.Width(), b: orchard.Height(), grid: grid, also: &orchard, small: n <= 40},
		)
	}
	dense := dataset.POISyn(2000, 5)
	da, db := unit(dense, 60)
	f2, err := dataset.F2(dense, da, db)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, resumeCase{name: "poisyn-f2-dense", ds: dense, q: f2, a: da, b: db, grid: 4, mix: true})
}

// TestResumedRoundsMatchRestarted holds a GI-DS session's resumed rounds
// to rounds started over: a top-8 whose every round extends the last
// round's exclusions by the region it answered, under no caller exclusion,
// a block of index cells around the unconstrained optimum (cells swallowed
// whole), and a box over the left margin strip; and, under no caller
// exclusion, one whose every round excludes a region meeting the answer
// region's bottom-left corner only, whose box forbids the answer point
// and cuts the cell holding it rather than swallowing it. Per round, with
// δ = 0 the distance is Float64bits-equal to a fresh gridindex.Solve
// under the same exclusions and, at n = 40, to SearchBaseline's; with
// δ = 0.1 it is within 1+δ of the exact one. After the rounds, one round
// under a list that does not extend the last — the first exclusion
// dropped — must start over and answer what a fresh Solve does.
//
// A resumed round must search no cell whose recorded candidate the
// round's exclusions still allow (Session: its key is at or above the
// threshold while the candidate stands), and it searches exactly the
// pieces of the cells it takes. The carried state must have been used
// (fewer ranges bounded and fewer cells searched than by the fresh
// rounds); the loop must have met swallowed cells and margins both
// searched and skipped; resumed rounds must have searched again a cell
// whose candidate a box cut out of it; the rounds must have recorded
// cells above the record cap (Session), which holds no candidate; and the
// dense case's resumed rounds must have both recorded swept cells and
// discretized others.
func TestResumedRoundsMatchRestarted(t *testing.T) {
	k := 8
	if testing.Short() {
		k = 4
	}
	var excluded, marginRuns, marginsSkipped int
	var resumedBounded, freshBounded, resumedCells, freshCells int
	var researched, cut, mixRecorded, mixDiscretized, above int
	for _, c := range resumeCases(t) {
		t.Run(c.name, func(t *testing.T) {
			ds, q, a, b := c.ds, c.q, c.a, c.b
			idx, err := gridindex.Build(ds, q.F, c.grid, c.grid)
			if err != nil {
				t.Fatal(err)
			}
			fresh := func(excl []geom.Rect, delta float64) (asp.Result, gridindex.Stats) {
				res, st, err := gridindex.Solve(idx, ds, q, a, b, excl, dssearch.Options{Delta: delta})
				if err != nil {
					t.Fatal(err)
				}
				return res, st
			}
			free, _ := fresh(nil, 0)
			bounds := idx.Bounds()
			cw, ch := bounds.Width()/float64(c.grid), bounds.Height()/float64(c.grid)
			ci := min(max(int((free.Point.X-bounds.MinX)/cw), 1), c.grid-2)
			cj := min(max(int((free.Point.Y-bounds.MinY)/ch), 1), c.grid-2)
			block := idx.CellRect(ci-1, cj-1)
			block.MaxX, block.MaxY = idx.CellRect(ci+1, cj+1).MaxX, idx.CellRect(ci+1, cj+1).MaxY
			space := asp.Space(mustReduce(t, ds, a, b))
			// next is the exclusion a round's answer adds: its region, or
			// one whose box holds the answer point and is a×b and an eighth.
			region := func(p geom.Point) geom.Rect { return asp.AnchorTR.RegionFor(p, a, b) }
			corner := func(p geom.Point) geom.Rect {
				return geom.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X + a/8, MaxY: p.Y + b/8}
			}
			callers := []struct {
				name string
				excl []geom.Rect
				next func(geom.Point) geom.Rect
			}{
				{"none", nil, region},
				{"cell-block", []geom.Rect{block}, region},
				{"left-margin", []geom.Rect{{MinX: bounds.MinX - 1, MinY: space.MinY - 1, MaxX: bounds.MinX + cw/3, MaxY: space.MaxY + b + 1}}, region},
				{"corners", nil, corner},
			}
			for _, delta := range []float64{0, 0.1} {
				for _, caller := range callers {
					own := append([]geom.Rect(nil), caller.excl...)
					if c.also != nil {
						own = append(own, *c.also)
					}
					tag := fmt.Sprintf("δ=%v/%s", delta, caller.name)
					s := gridindex.Open(idx, ds, q, a, b, dssearch.Options{Delta: delta}, k+1)
					excl := own
					check := func(round int, excl []geom.Rect) asp.Result {
						// A resumed round holds the candidates the last one
						// left: a cell searched may hold none its
						// exclusions allow.
						forbidden := dssearch.ForbiddenBoxes(excl, a, b)
						var records []gridindex.Record
						if round > 1 && round <= k {
							records = s.Records()
						}
						pieces := 0
						s.Visit(func(i, j int) {
							cell := idx.CellRect(i, j)
							cellPieces := dssearch.AppendPieces(nil, cell, forbidden)
							pieces += len(cellPieces)
							for _, r := range records {
								if r.Owner != j*c.grid+i {
									continue
								}
								if allowedPoint(r.Res.Point, forbidden) {
									t.Errorf("%s round %d searched cell (%d, %d), whose candidate %v at %v is allowed", tag, round, i, j, r.Res.Dist, r.Res.Point)
								}
								researched++
								if len(cellPieces) > 1 || len(cellPieces) == 1 && cellPieces[0] != cell {
									cut++
								}
							}
						})
						got, st, err := s.Solve(excl)
						if err == nil {
							err = gridindex.SelfChecked(st)
						}
						if err != nil {
							t.Fatal(err)
						}
						if st.Pieces != pieces+st.MarginRuns {
							t.Fatalf("%s round %d searched %d pieces, the cells taken have %d and the strips %d", tag, round, st.Pieces, pieces, st.MarginRuns)
						}
						above += st.RecordedAbove
						if c.mix && records != nil {
							mixRecorded += st.Recorded
							mixDiscretized += st.DS.Discretizations
						}
						excluded += st.CellsExcluded
						marginRuns += st.MarginRuns
						marginsSkipped += st.MarginsSkipped
						want, wst := fresh(excl, delta)
						if round > 1 {
							resumedBounded += st.Bounded
							freshBounded += wst.Bounded
							resumedCells += st.CellsSearched
							freshCells += wst.CellsSearched
						}
						exact := want
						if delta > 0 {
							exact, _ = fresh(excl, 0)
							if !(got.Dist <= (1+delta)*exact.Dist*(1+1e-12)) {
								t.Fatalf("%s round %d: %v, more than 1+δ times the optimum %v", tag, round, got.Dist, exact.Dist)
							}
						} else if math.Float64bits(got.Dist) != math.Float64bits(want.Dist) {
							t.Fatalf("%s round %d: resumed %v at %v, a fresh Solve %v at %v", tag, round, got.Dist, got.Point, want.Dist, want.Point)
						}
						if c.small {
							base := asrs.SearchBaseline(ds, asrs.QueryRequest{Query: q, A: a, B: b, Exclude: excl})
							if base.Err != nil {
								t.Fatal(base.Err)
							}
							if d := base.Results[0].Dist; math.Float64bits(exact.Dist) != math.Float64bits(d) {
								t.Fatalf("%s round %d: GI-DS %v, SearchBaseline %v", tag, round, exact.Dist, d)
							}
						}
						region := asp.AnchorTR.RegionFor(got.Point, a, b)
						if region != asp.AnchorTR.RegionFor(asp.EmptyCandidate(space), a, b) {
							for _, e := range excl {
								if region.IntersectsOpen(e) {
									t.Fatalf("%s round %d: region %v overlaps excluded %v", tag, round, region, e)
								}
							}
						}
						return got
					}
					for round := 1; round <= k; round++ {
						got := check(round, excl)
						excl = append(excl, caller.next(got.Point))
					}
					// Drop the first exclusion: not an extension of the last
					// list, so the session must start over.
					check(k+1, excl[1:])
					s.Close()
				}
			}
		})
	}
	if excluded == 0 || marginRuns == 0 || marginsSkipped == 0 {
		t.Fatalf("the rounds never met %d swallowed cells, %d margin runs, %d margins skipped; want all three", excluded, marginRuns, marginsSkipped)
	}
	t.Logf("resumed rounds searched %d cells again whose candidate was excluded, %d of them cut; %d cells were recorded above the cap; the dense case recorded %d and discretized %d times",
		researched, cut, above, mixRecorded, mixDiscretized)
	if cut == 0 || above == 0 || mixRecorded == 0 || mixDiscretized == 0 {
		t.Fatalf("resumed rounds searched %d cut cells again; %d cells were recorded above the cap; the dense case recorded %d cells and discretized %d times; want all four",
			cut, above, mixRecorded, mixDiscretized)
	}
	t.Logf("%d cells swallowed, %d margin runs, %d margins skipped; rounds 2+ bounded %d ranges and searched %d cells resumed, %d and %d fresh",
		excluded, marginRuns, marginsSkipped, resumedBounded, resumedCells, freshBounded, freshCells)
	if resumedBounded >= freshBounded || resumedCells >= freshCells {
		t.Fatalf("resumed rounds bounded %d ranges and searched %d cells, fresh ones %d and %d: nothing was carried",
			resumedBounded, resumedCells, freshBounded, freshCells)
	}
}

// switchCtx is a context whose Err is context.Canceled while the switch
// is on: a cancellation that can be taken back.
type switchCtx struct {
	context.Context
	on atomic.Bool
}

func (c *switchCtx) Err() error {
	if c.on.Load() {
		return context.Canceled
	}
	return nil
}

// TestResumedRoundCancelled cancels a carrying session's second round at
// its first cell: the round must surface the context's error, and the
// next round under the same exclusions must start over — take the cells a
// fresh Solve takes, in its order, and answer its distance and point.
func TestResumedRoundCancelled(t *testing.T) {
	for _, c := range resumeCases(t) {
		if c.small {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			ds, q, a, b := c.ds, c.q, c.a, c.b
			idx, err := gridindex.Build(ds, q.F, c.grid, c.grid)
			if err != nil {
				t.Fatal(err)
			}
			ctx := &switchCtx{Context: context.Background()}
			s := gridindex.Open(idx, ds, q, a, b, dssearch.Options{Ctx: ctx}, 3)
			defer s.Close()
			first, _, err := s.Solve(nil)
			if err != nil {
				t.Fatal(err)
			}
			excl := []geom.Rect{asp.AnchorTR.RegionFor(first.Point, a, b)}
			s.Visit(func(int, int) { ctx.on.Store(true) })
			if _, _, err := s.Solve(excl); !errors.Is(err, context.Canceled) {
				t.Fatalf("a round cancelled at its first cell returned %v, want context.Canceled", err)
			}
			ctx.on.Store(false)
			var got, want [][2]int
			s.Visit(func(i, j int) { got = append(got, [2]int{i, j}) })
			res, _, err := s.Solve(excl)
			if err != nil {
				t.Fatal(err)
			}
			fresh, _, err := gridindex.SolveVisiting(idx, ds, q, a, b, excl, dssearch.Options{}, func(i, j int) { want = append(want, [2]int{i, j}) })
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("the round after the cancelled one took cells %v, a fresh Solve %v", got, want)
			}
			if math.Float64bits(res.Dist) != math.Float64bits(fresh.Dist) || res.Point != fresh.Point {
				t.Fatalf("the round after the cancelled one answered %v at %v, a fresh Solve %v at %v", res.Dist, res.Point, fresh.Dist, fresh.Point)
			}
		})
	}
}

// TestConcurrentSessionsOnOneIndex runs top-k requests on one index from
// concurrent goroutines, so that the scratch their sessions carry between
// rounds cycles through the index's pool while others use it (run it
// under -race): every answer is the one the same request gets alone,
// region for region and bit for bit.
func TestConcurrentSessionsOnOneIndex(t *testing.T) {
	ds := dataset.POISyn(1500, 11)
	ua, ub := dataset.QueryUnit(ds.Bounds())
	idx, err := asrs.NewIndex(ds, mustF2(t, ds, 30*ua, 30*ub).F, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	var reqs []asrs.QueryRequest
	for i, size := range []float64{20, 30, 45} {
		q := mustF2(t, ds, size*ua, size*ub)
		q.F = idx.Composite()
		for k := 2; k <= 5; k++ {
			req := asrs.QueryRequest{Query: q, A: size * ua, B: size * ub, TopK: k}
			if k%2 == 1 {
				c := ds.Objects[i*7].Loc
				req.Exclude = []asrs.Rect{{MinX: c.X - ua, MinY: c.Y - ub, MaxX: c.X + ua, MaxY: c.Y + ub}}
			}
			reqs = append(reqs, req)
		}
	}
	want := make([]asrs.QueryResponse, len(reqs))
	for i, req := range reqs {
		if want[i], _ = asrs.Answer(ds, idx, req); want[i].Err != nil {
			t.Fatal(want[i].Err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4*len(reqs))
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := range reqs {
				i := (n + g*5) % len(reqs)
				got, _ := asrs.Answer(ds, idx, reqs[i])
				if got.Err != nil || len(got.Regions) != len(want[i].Regions) {
					errs <- fmt.Sprintf("request %d: %d rows (err %v), alone %d", i, len(got.Regions), got.Err, len(want[i].Regions))
					continue
				}
				for r := range got.Regions {
					if got.Regions[r] != want[i].Regions[r] || math.Float64bits(got.Results[r].Dist) != math.Float64bits(want[i].Results[r].Dist) {
						errs <- fmt.Sprintf("request %d row %d: %v at %v, alone %v at %v", i, r+1,
							got.Results[r].Dist, got.Regions[r], want[i].Results[r].Dist, want[i].Regions[r])
						break
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}

// allowedPoint reports whether an answer point lies in none of the open
// forbidden boxes.
func allowedPoint(p geom.Point, forbidden []geom.Rect) bool {
	for _, f := range forbidden {
		if f.ContainsOpen(p) {
			return false
		}
	}
	return true
}

func mustReduce(t *testing.T, ds *attr.Dataset, a, b float64) []asp.RectObject {
	t.Helper()
	rects, err := asp.Reduce(ds, a, b, asp.AnchorTR)
	if err != nil {
		t.Fatal(err)
	}
	return rects
}

func mustF2(t *testing.T, ds *attr.Dataset, a, b float64) asp.Query {
	t.Helper()
	q, err := dataset.F2(ds, a, b)
	if err != nil {
		t.Fatal(err)
	}
	return q
}
