package sweep_test

import (
	"math"
	"math/rand"
	"testing"

	"asrs/internal/agg"
	"asrs/internal/asp"
	"asrs/internal/dataset"
	"asrs/internal/geom"
	"asrs/internal/sweep"
)

var sweepSink asp.Result

// BenchmarkSweepGeneric times a pre-sized solver rebound to one rectangle
// set, summing in the limbs of the whole set as a search does, against an
// incumbent a hair better than anything the space holds, as most sweeps
// of a search near its optimum find it (a sweep that does improve on its
// cap returns a representation it allocates). The steady state of either
// walk must not allocate:
//
//	go test -run '^$' -bench SweepGeneric -benchmem ./internal/sweep/
//
// classic is the classic strip walk — what SearchBaseline runs, and
// DS-Search below the incremental sweep's incrMinRects — on a real-valued
// composite: the ≈ 150 rectangles of a small space (dssearch's
// sweepCutoff is 160) of POISyn's F2 (sum of visits + average rating,
// three of its channels two limbs).
//
// incremental is the incremental sweep's flat pass, a NewSized(2048)
// solver as DS-Search sizes it, on the sparse shape (SparseFixture): 1 200
// rectangles whose every dirty strip holds one or two dirty intervals
// some 1 600 intervals from its left end, the regime where the pass
// marches farthest for what it scores.
func BenchmarkSweepGeneric(b *testing.B) {
	b.Run("classic", func(b *testing.B) {
		ds := dataset.POISyn(5000, 42)
		ua, ub := dataset.QueryUnit(ds.Bounds())
		qa, qb := 30*ua, 30*ub
		q, err := dataset.F2(ds, qa, qb)
		if err != nil {
			b.Fatal(err)
		}
		rects, err := asp.Reduce(ds, qa, qb, asp.AnchorTR)
		if err != nil {
			b.Fatal(err)
		}
		// Grow a space around the corpus centre until it holds 150
		// rectangles.
		c := ds.Bounds().Center()
		var space geom.Rect
		var sub []asp.RectObject
		for m := 0.05; len(sub) < 150 && m < 8; m += 0.05 {
			space = geom.Rect{MinX: c.X - m*qa, MinY: c.Y - m*qb, MaxX: c.X + m*qa, MaxY: c.Y + m*qb}
			sub = sub[:0]
			for _, r := range rects {
				if r.Rect.IntersectsOpen(space) {
					sub = append(sub, r)
				}
			}
		}
		benchRebound(b, sweep.NewSized(0), rects, sub, q, space)
	})
	b.Run("incremental", func(b *testing.B) {
		rects, q := sweep.SparseFixture(b, rand.New(rand.NewSource(7)))
		s := sweep.NewSized(2048)
		benchRebound(b, s, rects, rects, q, sweep.SparseSpace)
		if s.Stats.FlatStrips == 0 {
			b.Fatal("the incremental sweep did not run")
		}
	})
}

// benchRebound times s rebound to the rectangles sub and sweeping space,
// its limbs certified over all, under a cap a hair below the space's
// optimum. It fails when the steady state allocates.
func benchRebound(b *testing.B, s *sweep.Solver, all, sub []asp.RectObject, q asp.Query, space geom.Rect) {
	var cbs []agg.Contrib
	for _, r := range all {
		cbs = q.F.AppendContribs(r.Obj, cbs)
	}
	var limbs agg.Limbs
	if err := limbs.Certify(q.F.Channels(), cbs); err != nil {
		b.Fatal(err)
	}
	var plan agg.Plan
	plan.Compile(q.F, &limbs, q.Norm, q.Target, q.W)
	s.Bind(&limbs, sweep.FlattenRows(sub, q.F, &limbs), &plan)
	geo, ids := make([]geom.Rect, len(sub)), make([]int32, len(sub))
	for i := range sub {
		geo[i], ids[i] = sub[i].Rect, int32(i)
	}
	capDist := math.Inf(1)
	run := func() {
		s.Rebind(geo, ids, nil)
		sweepSink, _ = s.SolveWithinCapped(space, capDist)
	}
	run() // first use sizes the solver's scratch and finds the space's optimum
	capDist = math.Nextafter(sweepSink.Dist, math.Inf(-1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		b.Fatalf("a rebound sweep allocates %.0f times, want 0", allocs)
	}
	strips := s.Stats.Strips
	run()
	b.ReportMetric(float64(len(sub)), "rects")
	b.ReportMetric(float64(s.Stats.Strips-strips), "strips/op")
}
