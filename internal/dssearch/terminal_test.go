package dssearch_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"asrs"
	"asrs/internal/agg"
	"asrs/internal/asp"
	"asrs/internal/attr"
	"asrs/internal/dataset"
	"asrs/internal/dssearch"
	"asrs/internal/geom"
	"asrs/internal/kernel"
)

// TestTerminalSweepRule: a cluster of 450 objects (every fifth a duplicate
// location) inside an 0.8a×0.8b box puts hundreds of reduction rectangles
// over every space near the optimum, however small — counting overlapping
// rectangles, such a space could only end at the paper's drop condition —
// while the rectangles with an edge inside it thin out with the space. The rule
// that counts those sweeps the space as soon as they are few: same
// distance as SearchBaseline, with and without the pyramid, in 7 and 8
// discretizations where the overlap-counting rule took 1 668 and 1 514,
// with some 120 containing rectangles folded into each sweep's base.
func TestTerminalSweepRule(t *testing.T) {
	const a, b = 8.0, 6.0
	rng := rand.New(rand.NewSource(19))
	ds := dataset.Random(300, 100, 23)
	for i := 0; i < 450; i++ {
		loc := geom.Point{X: 41 + rng.Float64()*0.8*a, Y: 57 + rng.Float64()*0.8*b}
		if i%5 == 4 {
			loc = ds.Objects[len(ds.Objects)-1-rng.Intn(4)].Loc
		}
		ds.Objects = append(ds.Objects, attr.Object{
			Loc:    loc,
			Values: []attr.Value{attr.CatValue(rng.Intn(3)), attr.NumValue(rng.Float64()*20 - 10)},
		})
	}
	for _, tc := range []struct {
		name      string
		specs     []agg.Spec
		target, w []float64
	}{
		{"integer", []agg.Spec{{Kind: agg.Distribution, Attr: "cat"}}, []float64{61, 47, 55}, nil},
		// Full-mantissa sums ride two limbs: a sorted master and the
		// incremental sweep, bit for bit with the baseline all the same.
		{"real", []agg.Spec{{Kind: agg.Distribution, Attr: "cat"}, {Kind: agg.Sum, Attr: "val"}}, []float64{61, 47, 55, 12.25}, []float64{1, 1, 1, 0.05}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := agg.MustNew(ds.Schema, tc.specs...)
			req := asrs.QueryRequest{Query: asp.Query{F: f, Target: tc.target, W: tc.w}, A: a, B: b}
			want := asrs.SearchBaseline(ds, req)
			if want.Err != nil {
				t.Fatal(want.Err)
			}
			wd := want.Results[0].Dist
			pyr, err := asrs.BuildPyramid(ds, f)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []*asrs.Pyramid{nil, pyr} {
				req.Options = &asrs.Options{Pyramid: p}
				got, stats := asrs.Answer(ds, nil, req)
				if got.Err != nil {
					t.Fatal(got.Err)
				}
				d := got.Results[0].Dist
				if math.Float64bits(d) != math.Float64bits(wd) {
					t.Fatalf("pyramid=%v: distance %v, the baseline's %v", p != nil, d, wd)
				}
				if st := stats.DS; st.Discretizations > 30 || st.MiniSweeps == 0 || st.SweepBaseRects < 100*st.MiniSweeps {
					t.Fatalf("pyramid=%v: %d discretizations (want at most 30), %d rectangles folded into %d sweep bases (want 100 and more each)",
						p != nil, st.Discretizations, st.SweepBaseRects, st.MiniSweeps)
				}
			}
		})
	}
}

// TestReleasedSlabsLetTheDatasetGo: the slabs a search hands back to the
// cache keep nothing of the dataset it ran over alive. The mini-sweep's
// rectangle scratch is the one recycled buffer with object pointers in it
// (scrubbed after each sweep); the next query rewrites only as much of it
// as its sweeps are large, so under ingest — a new dataset view per batch
// — a stale tail used to hold on to whole past views (10 MiB of
// shard-ingest's peak RSS).
func TestReleasedSlabsLetTheDatasetGo(t *testing.T) {
	collected := make(chan struct{})
	func() {
		ds := dataset.Random(400, 40, 31)
		runtime.SetFinalizer(&ds.Objects[0], func(*attr.Object) { close(collected) })
		f := agg.MustNew(ds.Schema, agg.Spec{Kind: agg.Distribution, Attr: "cat"})
		q := asp.Query{F: f, Target: []float64{9, 9, 9}}
		_, _, st, err := dssearch.SolveASRS(ds, 6, 6, q, nil, nil, dssearch.Options{Workers: 1})
		if err != nil || st.MiniSweepRects == 0 {
			t.Fatalf("no mini-sweep ran (err %v, stats %+v)", err, st)
		}
	}()
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the free list still references the dataset of a closed search")
}

// TestCollinearEdgesAreSwept: a cluster clamped to the corner of its
// bounds, as every generator clamps its clusters, puts hundreds of
// objects on the line x = 100 and hundreds on y = 100, and so hundreds of
// reduction rectangles share each of the edge coordinates 100 − a, 100,
// 100 − b and 100. A space that straddles such a line keeps those
// rectangles edged however thin it gets: counting edged rectangles, the
// search halves it down to slivers of 1e-13 (about 2 000
// discretizations a search on the real composite, whose plain search
// then even missed the optimum: 283.28 for 92.60). Counting distinct edge
// coordinates, it sweeps a sliver's few strips — or, across a vertical
// line, its few columns — at once: at most 11 discretizations a search
// (23 while the y clause stopped at 4 lines, when the rule without its x
// clause took 37 on the corpus). The rule without its y clause takes 38
// on the corpus transposed; without its x clause it now takes the same
// 11, because a sliver across a vertical line is swept by its y lines.
// Plain DS-Search and GI-DS answer SearchBaseline's distance bit for bit,
// within a ceiling of 30.
func TestCollinearEdgesAreSwept(t *testing.T) {
	const a, b = 8.0, 8.0
	rng := rand.New(rand.NewSource(7))
	ds := dataset.Random(300, 100, 11)
	for i := 0; i < 700; i++ {
		loc := geom.Point{X: math.Min(100, 97+rng.NormFloat64()*6), Y: math.Min(100, 97+rng.NormFloat64()*6)}
		ds.Objects = append(ds.Objects, attr.Object{
			Loc:    loc,
			Values: []attr.Value{attr.CatValue(rng.Intn(3)), attr.NumValue(rng.Float64()*20 - 10)},
		})
	}
	onX, onY := 0, 0
	for _, o := range ds.Objects {
		if o.Loc.X == 100 {
			onX++
		}
		if o.Loc.Y == 100 {
			onY++
		}
	}
	if onX < 150 || onY < 150 {
		t.Fatalf("%d objects on x = 100 and %d on y = 100, want 150 and more on each", onX, onY)
	}
	catStat := func(c int) func(o *attr.Object) float64 {
		return func(o *attr.Object) float64 {
			if o.Values[0].Cat == c {
				return 1
			}
			return 0
		}
	}
	var target []float64
	for c := 0; c < 3; c++ {
		target = append(target, math.Trunc(0.8*dataset.MaxWindowStat(ds, a, b, catStat(c)))+0.5)
	}
	// The corpus transposed: its slivers straddle horizontal lines.
	tr := &attr.Dataset{Schema: ds.Schema, Objects: append([]attr.Object(nil), ds.Objects...)}
	for i := range tr.Objects {
		tr.Objects[i].Loc.X, tr.Objects[i].Loc.Y = tr.Objects[i].Loc.Y, tr.Objects[i].Loc.X
	}
	for _, tc := range []struct {
		name      string
		ds        *attr.Dataset
		specs     []agg.Spec
		target, w []float64
	}{
		{"integer", ds, []agg.Spec{{Kind: agg.Distribution, Attr: "cat"}}, target, nil},
		{"real", ds, []agg.Spec{{Kind: agg.Distribution, Attr: "cat"}, {Kind: agg.Sum, Attr: "val"}}, append(append([]float64(nil), target...), 12.25), []float64{1, 1, 1, 0.05}},
		{"real-transposed", tr, []agg.Spec{{Kind: agg.Distribution, Attr: "cat"}, {Kind: agg.Sum, Attr: "val"}}, append(append([]float64(nil), target...), 12.25), []float64{1, 1, 1, 0.05}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds := tc.ds
			f := agg.MustNew(ds.Schema, tc.specs...)
			req := asrs.QueryRequest{Query: asp.Query{F: f, Target: tc.target, W: tc.w}, A: a, B: b, Options: &asrs.Options{Workers: 1}}
			want := asrs.SearchBaseline(ds, req)
			if want.Err != nil {
				t.Fatal(want.Err)
			}
			idx, err := asrs.NewIndex(ds, f, 16, 16)
			if err != nil {
				t.Fatal(err)
			}
			for _, ix := range []*asrs.Index{nil, idx} {
				got, stats := asrs.Answer(ds, ix, req)
				if got.Err != nil {
					t.Fatal(got.Err)
				}
				if d, wd := got.Results[0].Dist, want.Results[0].Dist; math.Float64bits(d) != math.Float64bits(wd) {
					t.Fatalf("index=%v: distance %v, the baseline's %v", ix != nil, d, wd)
				}
				if n := stats.DS.Discretizations; n > 30 {
					t.Fatalf("index=%v: %d discretizations, want at most 30", ix != nil, n)
				}
			}
		})
	}
}

// TestLatticeSpacesAreSwept: on an integer lattice every edge coordinate
// is a whole number, so a space under 15 units high holds at most 15
// distinct y edges and the terminal rule sweeps it (sweepYLines). These
// are the spaces the paper's drop condition (Definition 8) used to stop
// once two grid rows fit between two lattice lines; 3 000 objects on a
// 40×40 lattice, a = b = 6.5, six queries: plain DS-Search and GI-DS
// answer SearchBaseline's distance bit for bit, and the six plain
// searches discretize at most 600 spaces in all. They take 485; without
// the x clause (sweepXLines) they take 845, and with the y clause at 4
// lines 3 034.
func TestLatticeSpacesAreSwept(t *testing.T) {
	const a, b = 6.5, 6.5
	ds := dataset.Random(3000, 40, 7)
	for i := range ds.Objects {
		l := &ds.Objects[i].Loc
		l.X, l.Y = math.Round(l.X), math.Round(l.Y)
	}
	total := 0
	for i, req := range latticeQueries(ds, a, b) {
		want := asrs.SearchBaseline(ds, req)
		if want.Err != nil {
			t.Fatal(want.Err)
		}
		idx, err := asrs.NewIndex(ds, req.Query.F, 16, 16)
		if err != nil {
			t.Fatal(err)
		}
		for _, ix := range []*asrs.Index{nil, idx} {
			got, stats := asrs.Answer(ds, ix, req)
			if got.Err != nil {
				t.Fatal(got.Err)
			}
			if d, wd := got.Results[0].Dist, want.Results[0].Dist; math.Float64bits(d) != math.Float64bits(wd) {
				t.Fatalf("query %d, index=%v: distance %v, the baseline's %v", i, ix != nil, d, wd)
			}
			if ix == nil {
				total += stats.DS.Discretizations
			}
		}
	}
	if total > 600 {
		t.Fatalf("%d discretizations over the six plain searches, want at most 600", total)
	}
}

// latticeQueries draws six a×b queries over ds (rng seed 3), each the
// representation of the window around a random object, scaled by 1.1 and
// offset so that no region matches it exactly: even ones an F1 target on
// cat, odd ones an F2 target, the sum and the average of val.
func latticeQueries(ds *attr.Dataset, a, b float64) []asrs.QueryRequest {
	f1 := agg.MustNew(ds.Schema, agg.Spec{Kind: agg.Distribution, Attr: "cat"})
	f2 := agg.MustNew(ds.Schema, agg.Spec{Kind: agg.Sum, Attr: "val"}, agg.Spec{Kind: agg.Average, Attr: "val"})
	rng := rand.New(rand.NewSource(3))
	reqs := make([]asrs.QueryRequest, 6)
	for i := range reqs {
		f := f1
		if i%2 == 1 {
			f = f2
		}
		o := ds.Objects[rng.Intn(len(ds.Objects))].Loc
		target := asrs.Represent(ds, f, geom.Rect{MinX: o.X - a/2, MinY: o.Y - b/2, MaxX: o.X + a/2, MaxY: o.Y + b/2})
		for j := range target {
			target[j] = math.Trunc(target[j]*1.1) + 0.5
		}
		reqs[i] = asrs.QueryRequest{Query: asp.Query{F: f, Target: target}, A: a, B: b, Options: &asrs.Options{Workers: 1}}
	}
	return reqs
}

// TestSweptCellUnderSharedCap: a GI-DS piece the terminal rule takes is
// swept without a kernel run, and under a shared cap it behaves as that
// run's bound would. It publishes the incumbent and what it finds, a
// sibling's cap below its bound prunes it, and a cap equal to its bound
// does not (the cap folds in open), so the sweep finds the optimum.
func TestSweptCellUnderSharedCap(t *testing.T) {
	const a, b = 12.0, 9.0
	ds := dataset.Random(40, 100, 5)
	f := agg.MustNew(ds.Schema, agg.Spec{Kind: agg.Distribution, Attr: "cat"})
	q := asp.Query{F: f, Target: []float64{2, 1, 1}}
	plain, err := dssearch.NewShapeSearcher(t, ds, a, b, q, dssearch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opt := plain.Solve().Dist
	inf := asp.Result{Dist: math.Inf(1)}

	for _, tc := range []struct {
		name    string
		cap     float64 // a sibling's publication; +Inf for none
		lb      float64 // the piece's bound
		swept   bool
		wantCap float64
	}{
		{"fresh cap", math.Inf(1), 0, true, opt},
		{"cap at the bound", opt, opt, true, opt},
		{"cap below the bound", opt / 2, opt, false, opt / 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := kernel.NewExtCap()
			c.Publish(tc.cap)
			s, err := dssearch.NewShapeSearcher(t, ds, a, b, q, dssearch.Options{SharedCap: c})
			if err != nil {
				t.Fatal(err)
			}
			s.SeedBest(inf)
			space := s.Space()
			if _, exact := s.SolveCell(space, tc.lb, s.AppendWindowIDs(space, nil), math.Inf(-1)); exact {
				t.Fatal("a capped sweep reported an exact minimum")
			}
			if s.Err() != nil {
				t.Fatal(s.Err())
			}
			wantBest, sweeps := math.Inf(1), 0
			if tc.swept {
				wantBest, sweeps = opt, 1
			}
			if st := s.Stats; st.Discretizations != 0 || st.HeapPushes != 0 || st.MiniSweeps != sweeps {
				t.Fatalf("%d discretizations, %d heap pushes, %d sweeps; want %d sweeps and no kernel run",
					st.Discretizations, st.HeapPushes, st.MiniSweeps, sweeps)
			}
			if s.Best().Dist != wantBest {
				t.Fatalf("incumbent at %v, want %v", s.Best().Dist, wantBest)
			}
			if got := c.Load(); got != tc.wantCap {
				t.Fatalf("cap at %v, want %v", got, tc.wantCap)
			}
		})
	}
}

// TestExactSweepAfterDeadline: an exact sweep (SolveCell's record) is not
// stopped by the termination test, but a late deadline only costs it the
// record when that test would have stopped the piece: the search's answer
// is settled and no error surfaces. A piece the test spares fails with the
// context's error, as a kernel run would.
func TestExactSweepAfterDeadline(t *testing.T) {
	const a, b = 12.0, 9.0
	ds := dataset.Random(40, 100, 5)
	f := agg.MustNew(ds.Schema, agg.Spec{Kind: agg.Distribution, Attr: "cat"})
	q := asp.Query{F: f, Target: []float64{2, 1, 1}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		lb   float64
		err  error
	}{
		{"pruned", 5, nil},
		{"spared", 0, context.Canceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := dssearch.NewShapeSearcher(t, ds, a, b, q, dssearch.Options{Ctx: ctx})
			if err != nil {
				t.Fatal(err)
			}
			s.SeedBest(asp.Result{Dist: 5})
			space := s.Space()
			ids := s.AppendWindowIDs(space, nil)
			if _, exact := s.SolveCell(space, tc.lb, ids, math.Inf(1)); exact || !errors.Is(s.Err(), tc.err) {
				t.Fatalf("exact = %v, err = %v; want no record and %v", exact, s.Err(), tc.err)
			}
			if s.Stats.MiniSweeps != 0 {
				t.Fatalf("%d sweeps after the deadline", s.Stats.MiniSweeps)
			}
		})
	}
}

// TestRecordCap: a recording sweep of a piece (SolveCell with a record cap
// at or above the incumbent) tells the piece's minimum from "swept,
// nothing at or under the cap". A cap of +Inf returns the exact minimum;
// a cap equal to it returns the same point at the same distance; a cap
// below it returns a swept piece with no candidate (distance +Inf, no
// representation), and leaves the incumbent alone. A cap below the
// incumbent records nothing: the sweep is the incumbent's.
func TestRecordCap(t *testing.T) {
	const a, b = 12.0, 9.0
	ds := dataset.Random(40, 100, 5)
	f := agg.MustNew(ds.Schema, agg.Spec{Kind: agg.Distribution, Attr: "cat"})
	q := asp.Query{F: f, Target: []float64{2, 1, 1}}
	solve := func(incumbent, record float64) (asp.Result, bool, *dssearch.Searcher) {
		t.Helper()
		s, err := dssearch.NewShapeSearcher(t, ds, a, b, q, dssearch.Options{})
		if err != nil {
			t.Fatal(err)
		}
		s.SeedBest(asp.Result{Dist: incumbent})
		space := s.Space()
		r, ok := s.SolveCell(space, 0, s.AppendWindowIDs(space, nil), record)
		if s.Err() != nil {
			t.Fatal(s.Err())
		}
		if s.Stats.MiniSweeps != 1 || s.Stats.Discretizations != 0 {
			t.Fatalf("record %v: %d sweeps, %d discretizations; want the piece swept once", record, s.Stats.MiniSweeps, s.Stats.Discretizations)
		}
		return r, ok, s
	}
	least, ok, _ := solve(0, math.Inf(1))
	if !ok || least.Rep == nil || least.Dist <= 0 {
		t.Fatalf("an uncapped record returned %v at %v (ok %v), want the piece's minimum", least.Dist, least.Point, ok)
	}
	if r, ok, _ := solve(0, least.Dist); !ok || r.Rep == nil || math.Float64bits(r.Dist) != math.Float64bits(least.Dist) || r.Point != least.Point {
		t.Fatalf("a record capped at the minimum %v returned %v at %v (ok %v), want %v at %v", least.Dist, r.Dist, r.Point, ok, least.Dist, least.Point)
	}
	r, ok, s := solve(0, least.Dist/2)
	if !ok || r.Rep != nil || !math.IsInf(r.Dist, 1) {
		t.Fatalf("a record capped under the minimum returned %v at %v (ok %v), want a swept piece with no candidate", r.Dist, r.Point, ok)
	}
	if s.Best().Dist != 0 {
		t.Fatalf("a record with no candidate moved the incumbent to %v", s.Best().Dist)
	}
	if _, ok, s := solve(math.Inf(1), math.Inf(-1)); ok || s.Best().Dist != least.Dist {
		t.Fatalf("a cap under the incumbent recorded (ok %v), or the sweep left the incumbent at %v, not %v", ok, s.Best().Dist, least.Dist)
	}
}

// TestTerminalRuleOncePerSpace: the terminal rule depends on a space and
// its ids alone, so it is asked of each space once — of a child by push
// before it is queued, of SolveWithin's seed when it is popped, of
// SolveCell's seed before its run — and never again when a queued space
// is popped. Plain Solve and a SolveCell run over the whole space, on a
// corpus whose searches split and pop queued spaces.
func TestTerminalRuleOncePerSpace(t *testing.T) {
	ds := dataset.Random(3000, 100, 61)
	f := agg.MustNew(ds.Schema, agg.Spec{Kind: agg.Distribution, Attr: "cat"})
	q := asp.Query{F: f, Target: []float64{14, 9, 11}}
	for _, cell := range []bool{false, true} {
		s, err := dssearch.NewShapeSearcher(t, ds, 5, 5, q, dssearch.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		tests := s.RuleTests()
		if cell {
			s.SeedBest(asp.Result{Dist: math.Inf(1)})
			s.SolveCell(s.Space(), 0, s.AppendWindowIDs(s.Space(), nil), math.Inf(-1))
		} else {
			s.Solve()
		}
		if st := s.Stats; st.HeapPushes < 4 || st.Discretizations < 4 {
			t.Fatalf("cell=%v: %d pushes and %d discretizations: too few queued spaces were popped to tell", cell, st.HeapPushes, st.Discretizations)
		}
		for space, n := range tests {
			if n != 1 {
				t.Fatalf("cell=%v: the terminal rule was asked %d times of the space %v", cell, n, space)
			}
		}
	}
}
