package gridindex_test

import (
	"fmt"
	"math"
	"sync"
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
}

// resumeCases builds Tweet F1, POISyn F2 and the Singapore category
// composite by example, each at n = 40 (held to SearchBaseline too) and
// at n = 600.
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
	return out
}

// TestResumedRoundsMatchRestarted holds a GI-DS session's resumed rounds
// to rounds started over: a top-8 whose every round extends the last
// round's exclusions by the region it answered, under no caller exclusion,
// a block of index cells around the unconstrained optimum (cells swallowed
// whole), and a box over the left margin strip. Per round, with δ = 0 the
// distance is Float64bits-equal to a fresh gridindex.Solve under the same
// exclusions and, at n = 40, to SearchBaseline's; with δ = 0.1 it is
// within 1+δ of the exact one. After the rounds, one round under a list
// that does not extend the last — the swallowing exclusion dropped — must
// start over and answer what a fresh Solve does. The carried state must
// have been used (fewer ranges bounded and fewer cells searched than by
// the fresh rounds), and the
// loop must have met swallowed cells and margins both searched and
// skipped.
func TestResumedRoundsMatchRestarted(t *testing.T) {
	k := 8
	if testing.Short() {
		k = 4
	}
	var excluded, marginRuns, marginsSkipped int
	var resumedBounded, freshBounded, resumedCells, freshCells int
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
			callers := []struct {
				name string
				excl []geom.Rect
			}{
				{"none", nil},
				{"cell-block", []geom.Rect{block}},
				{"left-margin", []geom.Rect{{MinX: bounds.MinX - 1, MinY: space.MinY - 1, MaxX: bounds.MinX + cw/3, MaxY: space.MaxY + b + 1}}},
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
						got, st, err := s.Solve(excl)
						if err == nil {
							err = gridindex.SelfChecked(st)
						}
						if err != nil {
							t.Fatal(err)
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
						excl = append(excl, asp.AnchorTR.RegionFor(got.Point, a, b))
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
	t.Logf("%d cells swallowed, %d margin runs, %d margins skipped; rounds 2+ bounded %d ranges and searched %d cells resumed, %d and %d fresh",
		excluded, marginRuns, marginsSkipped, resumedBounded, resumedCells, freshBounded, freshCells)
	if resumedBounded >= freshBounded || resumedCells >= freshCells {
		t.Fatalf("resumed rounds bounded %d ranges and searched %d cells, fresh ones %d and %d: nothing was carried",
			resumedBounded, resumedCells, freshBounded, freshCells)
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
