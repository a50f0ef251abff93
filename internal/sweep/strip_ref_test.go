package sweep

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"asrs/internal/agg"
	"asrs/internal/asp"
	"asrs/internal/attr"
	"asrs/internal/geom"
)

// This file keeps the classic strip walk in a form that reads nothing
// flattened — every interval's covering set is summed afresh at its point
// (asp.PointRepresentation), evaluating the composite's selectors over
// the rectangles' objects — as the oracle scanStrip is held to bit for
// bit (TestScanStripFlatMatchesAccumulator).

// refSolveWithin is SolveWithin's classic strip loop over refScanStrip
// for the query q the solver is bound to, reading the bound rectangles'
// objects from objs (objs[i] is bound rectangle i).
func (s *Solver) refSolveWithin(q asp.Query, objs []asp.RectObject, space geom.Rect) (asp.Result, bool) {
	ys := []float64{space.MinY, space.MaxY}
	for _, r := range s.rects {
		if r.MinY > space.MinY && r.MinY < space.MaxY {
			ys = append(ys, r.MinY)
		}
		if r.MaxY > space.MinY && r.MaxY < space.MaxY {
			ys = append(ys, r.MaxY)
		}
	}
	sort.Float64s(ys)
	ys = dedup(ys)
	best := asp.Result{Dist: math.Inf(1)}
	found := false
	for si := 0; si+1 < len(ys); si++ {
		if ys[si+1] <= ys[si] {
			continue
		}
		if s.refScanStrip(q, objs, (ys[si]+ys[si+1])/2, space, &best) {
			found = true
		}
	}
	if space.MinY == space.MaxY {
		if s.refScanStrip(q, objs, space.MinY, space, &best) {
			found = true
		}
	}
	return best, found
}

// refScanStrip is the strip walk, each interval scored at its point from
// the objects covering it.
func (s *Solver) refScanStrip(q asp.Query, objs []asp.RectObject, ym float64, space geom.Rect, best *asp.Result) bool {
	var strip []asp.RectObject // the objects active in the strip
	for _, o := range objs {
		if o.Rect.MinY < ym && ym < o.Rect.MaxY {
			strip = append(strip, o)
		}
	}
	found := false
	ins, outs := s.byMinX, s.byMaxX
	ii, oi := 0, 0
	prevX := space.MinX
	evaluate := func(upToX float64) {
		l := math.Max(prevX, space.MinX)
		r := math.Min(upToX, space.MaxX)
		if l > r {
			return
		}
		xm := l
		if l != r {
			xm = (l + r) / 2
		}
		rep := asp.PointRepresentation(strip, q.F, geom.Point{X: xm, Y: ym})
		bnd := best.Dist
		if s.evalCap < bnd {
			bnd = s.evalCap
		}
		if d, ok := agg.DistanceUnder(q.Norm, rep, q.Target, q.W, bnd); ok {
			best.Dist = d
			best.Point = geom.Point{X: xm, Y: ym}
			best.Rep = append(best.Rep[:0], rep...)
		}
		found = true
	}
	if space.MinX == space.MaxX {
		evaluate(space.MaxX)
		return found
	}
	for ii < len(ins) || oi < len(outs) {
		var x float64
		takeIn := false
		switch {
		case ii >= len(ins):
			x = s.rects[outs[oi]].MaxX
		case oi >= len(outs):
			x = s.rects[ins[ii]].MinX
			takeIn = true
		default:
			xi := s.rects[ins[ii]].MinX
			xo := s.rects[outs[oi]].MaxX
			if xi < xo {
				x, takeIn = xi, true
			} else {
				x = xo
			}
		}
		if x > prevX && x > space.MinX {
			evaluate(x)
			prevX = x
		}
		if prevX >= space.MaxX {
			break
		}
		if takeIn {
			ii++
		} else {
			oi++
		}
	}
	if prevX < space.MaxX {
		evaluate(space.MaxX)
	}
	return found
}

// TestScanStripFlatMatchesAccumulator: the classic sweep over flattened
// limb contributions returns the answer of the walk that sums each
// interval's covering objects afresh — distance, point, representation —
// bit for bit, on a composite of dyadic values whose selectors reject
// part of the objects, over whole, random, zero-width and zero-height
// spaces, with and without an evaluation cap, through one solver rebound
// from trial to trial (a stale table would answer for the previous
// rectangles).
func TestScanStripFlatMatchesAccumulator(t *testing.T) {
	schema, err := attr.NewSchema(
		attr.Attribute{Name: "rating", Kind: attr.Numeric},
		attr.Attribute{Name: "visits", Kind: attr.Numeric},
	)
	if err != nil {
		t.Fatal(err)
	}
	f, err := agg.New(schema,
		agg.Spec{Kind: agg.Sum, Attr: "visits", Select: attr.SelectNumRange(0, 2, 9)},
		agg.Spec{Kind: agg.Average, Attr: "rating"},
		agg.Spec{Kind: agg.Count, Select: attr.SelectNumRange(1, -50, 400)},
	)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(97))
	var s *Solver
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(150)
		objs := make([]attr.Object, n)
		rects := make([]asp.RectObject, n)
		w, h := 4+rng.Float64()*10, 3+rng.Float64()*10
		for i := range rects {
			x, y := rng.Float64()*100, rng.Float64()*100
			if rng.Intn(3) == 0 {
				x, y = float64(rng.Intn(20))*5, float64(rng.Intn(20))*5
			}
			objs[i] = attr.Object{Loc: geom.Point{X: x, Y: y}, Values: []attr.Value{{Num: float64(rng.Intn(41)) * 0.25}, {Num: float64(rng.Intn(2401)-1200) * 0.5}}}
			rects[i] = asp.RectObject{Rect: geom.Rect{MinX: x - w, MinY: y - h, MaxX: x, MaxY: y}, Obj: &objs[i]}
		}
		q := asp.Query{F: f, Target: []float64{500 * rng.Float64(), 10 * rng.Float64(), float64(rng.Intn(8))}, Norm: agg.Norm(trial % 2)}
		if s == nil {
			if s, err = New(rects, q); err != nil {
				t.Fatal(err)
			}
		} else {
			bindObjects(s, q, limbsOver(t, f, rects), rects, nil)
		}
		x, y := float64(rng.Intn(20))*5, float64(rng.Intn(20))*5
		spaces := []geom.Rect{
			asp.Space(rects),
			{MinX: rng.Float64() * 50, MinY: rng.Float64() * 50, MaxX: 50 + rng.Float64()*50, MaxY: 50 + rng.Float64()*50},
			{MinX: x, MinY: 5, MaxX: x, MaxY: 95},                        // zero width, on shared edges
			{MinX: 5, MinY: y, MaxX: 95, MaxY: y},                        // zero height, on shared edges
			{MinX: x - w/2, MinY: y - h/2, MaxX: x - w/2, MaxY: y - h/2}, // a point
		}
		for si, space := range spaces {
			for _, capDist := range []float64{math.Inf(1), 3} {
				s.evalCap = capDist
				want, wok := s.refSolveWithin(q, rects, space)
				got, gok := s.SolveWithin(space)
				s.evalCap = math.Inf(1)
				expectSame(t, fmt.Sprintf("trial %d space %d cap %v", trial, si, capDist), want, got, wok, gok)
			}
		}
	}
}

// TestRebindOrderMatchesSortSlice: Rebind's edge orders are the
// permutations sort.Slice produced, ties included — rectangles that share
// an edge coordinate enter and leave the accumulator in that order.
func TestRebindOrderMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	f := agg.MustNew(attr.MustSchema(attr.Attribute{Name: "v", Kind: attr.Numeric}), agg.Spec{Kind: agg.Sum, Attr: "v"})
	q := asp.Query{F: f, Target: []float64{0}}
	o := &attr.Object{Values: []attr.Value{{Num: 1}}}
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(700)
		rects := make([]asp.RectObject, n)
		grid := 1 + rng.Intn(40) // few distinct coordinates: many ties
		for i := range rects {
			x := float64(rng.Intn(grid))
			rects[i] = asp.RectObject{Rect: geom.Rect{MinX: x, MinY: 0, MaxX: x + float64(rng.Intn(grid)), MaxY: 1}, Obj: o}
		}
		s, err := New(rects, q)
		if err != nil {
			t.Fatal(err)
		}
		byMinX, byMaxX := make([]int, n), make([]int, n)
		for i := range rects {
			byMinX[i], byMaxX[i] = i, i
		}
		sort.Slice(byMinX, func(a, b int) bool { return rects[byMinX[a]].Rect.MinX < rects[byMinX[b]].Rect.MinX })
		sort.Slice(byMaxX, func(a, b int) bool { return rects[byMaxX[a]].Rect.MaxX < rects[byMaxX[b]].Rect.MaxX })
		for i := range rects {
			if s.byMinX[i] != byMinX[i] || s.byMaxX[i] != byMaxX[i] {
				t.Fatalf("trial %d (n=%d): position %d holds rects %d/%d, sort.Slice put %d/%d there", trial, n, i, s.byMinX[i], s.byMaxX[i], byMinX[i], byMaxX[i])
			}
		}
	}
}

// TestSolveOnBoundSolver: Solve on a solver that NewSized built and Bind
// gave its plan — no query of its own — answers what New's solver does,
// bit for bit, the empty covering set included: targets of 0 make it the
// answer (an empty Average scores 0), and an instance with no rectangles
// has no other.
func TestSolveOnBoundSolver(t *testing.T) {
	schema, err := attr.NewSchema(
		attr.Attribute{Name: "rating", Kind: attr.Numeric},
		attr.Attribute{Name: "visits", Kind: attr.Numeric},
	)
	if err != nil {
		t.Fatal(err)
	}
	f, err := agg.New(schema,
		agg.Spec{Kind: agg.Sum, Attr: "visits"},
		agg.Spec{Kind: agg.Average, Attr: "rating"},
		agg.Spec{Kind: agg.Count},
	)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(60)
		if trial%5 == 0 { // under both norms, with and without a zero target
			n = 0
		}
		objs := make([]attr.Object, n)
		rects := make([]asp.RectObject, n)
		for i := range rects {
			x, y := rng.Float64()*50, rng.Float64()*50
			objs[i] = attr.Object{Loc: geom.Point{X: x, Y: y}, Values: []attr.Value{{Num: float64(rng.Intn(41)) * 0.25}, {Num: float64(rng.Intn(200))}}}
			rects[i] = asp.RectObject{Rect: geom.Rect{MinX: x - 6, MinY: y - 4, MaxX: x, MaxY: y}, Obj: &objs[i]}
		}
		target := []float64{0, 0, 0}
		if trial%2 == 1 {
			target = []float64{100 * rng.Float64(), 5 * rng.Float64(), float64(rng.Intn(4))}
		}
		q := asp.Query{F: f, Target: target, Norm: agg.Norm(trial / 2 % 2)}
		s, err := New(rects, q)
		if err != nil {
			t.Fatal(err)
		}
		want := s.Solve()
		if n == 0 {
			// The empty set's representation, finalized from zero channels.
			rep := make([]float64, f.Dims())
			f.FinalizeExact(make([]float64, f.Channels()), rep)
			if d := q.Distance(rep); math.Float64bits(d) != math.Float64bits(want.Dist) {
				t.Fatalf("trial %d: the empty set scores %v, its finalized representation %v", trial, want.Dist, d)
			}
		}
		for _, incrCap := range []int{0, 1 << 20} {
			b := NewSized(incrCap)
			bindObjects(b, q, limbsOver(t, f, rects), rects, nil)
			got := b.Solve()
			expectSameBits(t, fmt.Sprintf("trial %d (n=%d) incrCap %d", trial, n, incrCap), want, got, true, true)
		}
	}
}
