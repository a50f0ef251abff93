package dssearch

import (
	"math"
	"math/rand"
	"testing"

	"asrs/internal/agg"
	"asrs/internal/asp"
	"asrs/internal/attr"
	"asrs/internal/geom"
	"asrs/internal/sweep"
)

// inCanonicalOrder reports whether order lists the anchors pts (in
// order's order) in the (x, y, index) order.
func inCanonicalOrder(pts []geom.Point, order []int32) bool {
	for i := 1; i < len(order); i++ {
		a, b := pts[i-1], pts[i]
		if compareAnchors(anchorKey{a.X, a.Y, order[i-1]}, anchorKey{b.X, b.Y, order[i]}) > 0 {
			return false
		}
	}
	return true
}

// spreadValue draws a full-mantissa real between 1e-12 and 1e12 in
// magnitude: a few dozen of them sum in a chain of three limbs or more.
func spreadValue(rng *rand.Rand) float64 {
	return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(25)-12))
}

// chained reports whether some channel of l sums in three limbs or more:
// more extra limbs than channels that have one.
func chained(l *agg.Limbs) bool {
	extra := 0
	for _, lo := range l.Lo {
		if lo >= 0 {
			extra++
		}
	}
	return l.Eff()-len(l.Lo) > extra
}

// TestThreeLimbMasterSorts: a composite whose sums take a chain of three
// limbs gets the sorted master like every other, and its search answers
// the sweep baseline's distance bit for bit.
func TestThreeLimbMasterSorts(t *testing.T) {
	schema, err := attr.NewSchema(attr.Attribute{Name: "v", Kind: attr.Numeric})
	if err != nil {
		t.Fatal(err)
	}
	f, err := agg.New(schema, agg.Spec{Kind: agg.Sum, Attr: "v"}, agg.Spec{Kind: agg.Average, Attr: "v"})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 4; trial++ {
		objs := make([]attr.Object, 120)
		for i := range objs {
			x, y := rng.Float64()*10, rng.Float64()*10
			objs[i] = attr.Object{Loc: geom.Point{X: x, Y: y}, Values: []attr.Value{{Num: spreadValue(rng)}}}
		}
		ds := &attr.Dataset{Objects: objs}
		q := asp.Query{F: f, Target: []float64{spreadValue(rng), spreadValue(rng)}}
		s, err := NewShapeSearcher(t, ds, 1, 1, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !chained(&s.tab.limbs) {
			t.Fatalf("trial %d: limbs %v, lo %v: no chain of three", trial, s.tab.limbs.Scale, s.tab.limbs.Lo)
		}
		if !inCanonicalOrder(s.pts, s.order) {
			t.Fatalf("trial %d: the master is not sorted by anchor", trial)
		}
		for id, oi := range s.order {
			if s.pts[id] != objs[oi].Loc {
				t.Fatalf("trial %d: master id %d is anchored at %v, its object at %v", trial, id, s.pts[id], objs[oi].Loc)
			}
		}
		got := s.Solve()
		rects, err := asp.Reduce(ds, 1, 1, asp.AnchorTR)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := sweep.New(rects, q)
		if err != nil {
			t.Fatal(err)
		}
		if want := sw.Solve(); math.Float64bits(got.Dist) != math.Float64bits(want.Dist) {
			t.Fatalf("trial %d: distance %v, the sweep's %v", trial, got.Dist, want.Dist)
		}
	}
}

// referenceLevel lays out the anchor-bin level over pts the
// straightforward way: the grid over the anchors' hull from their
// minimum, each anchor appended to its bin's list in id order, the count
// plane counted bin by bin, and each threshold run kept by walking the
// bin lines' anchors in order and taking only a strictly better one.
func referenceLevel(g int, pts []geom.Point) *satLevel {
	l := &satLevel{gx: g, gy: g}
	lo := geom.Point{X: math.Inf(1), Y: math.Inf(1)}
	hi := geom.Point{X: math.Inf(-1), Y: math.Inf(-1)}
	for _, p := range pts {
		lo = geom.Point{X: min(lo.X, p.X), Y: min(lo.Y, p.Y)}
		hi = geom.Point{X: max(hi.X, p.X), Y: max(hi.Y, p.Y)}
	}
	extent := func(lo, hi float64) float64 {
		if w := (hi - lo) / float64(g); w > 0 {
			return w
		}
		return 1
	}
	l.bx0, l.by0, l.bw, l.bh = lo.X, lo.Y, extent(lo.X, hi.X), extent(lo.Y, hi.Y)
	bins := make([][]int32, g*g)
	cols, rows := make([][]int32, g), make([][]int32, g)
	for id, p := range pts {
		i := max(min(int((p.X-lo.X)/l.bw), g-1), 0)
		j := max(min(int((p.Y-lo.Y)/l.bh), g-1), 0)
		bins[j*g+i] = append(bins[j*g+i], int32(id))
		cols[i] = append(cols[i], int32(id))
		rows[j] = append(rows[j], int32(id))
	}
	l.binStart = []int32{0}
	for _, ids := range bins {
		l.binIds = append(l.binIds, ids...)
		l.binStart = append(l.binStart, int32(len(l.binIds)))
	}
	w := g + 1
	l.cnt = make([]int32, w*w)
	for j := 0; j <= g; j++ {
		for i := 0; i <= g; i++ {
			for b, ids := range bins {
				if b%g < i && b/g < j {
					l.cnt[j*w+i] += int32(len(ids))
				}
			}
		}
	}
	run := func(lines [][]int32, first, step int, beats func(a, b geom.Point) bool) []int32 {
		out := make([]int32, g)
		best := int32(-1)
		for i := first; i >= 0 && i < g; i += step {
			for _, id := range lines[i] {
				if best < 0 || beats(pts[id], pts[best]) {
					best = id
				}
			}
			out[i] = best
		}
		return out
	}
	l.xMaxUpTo = run(cols, 0, 1, func(a, b geom.Point) bool { return a.X > b.X })
	l.xMinFrom = run(cols, g-1, -1, func(a, b geom.Point) bool { return a.X < b.X })
	l.yMaxUpTo = run(rows, 0, 1, func(a, b geom.Point) bool { return a.Y > b.Y })
	l.yMinFrom = run(rows, g-1, -1, func(a, b geom.Point) bool { return a.Y < b.Y })
	return l
}

// TestRaisedLevelMatchesReference holds the raised level to
// referenceLevel, field for field, on anchors with ties, on a line, at a
// point, and spread past the grid's doubling.
func TestRaisedLevelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	lattice, _ := pyramidDataset(t, rng, 300, func() float64 { return 1 }, false)
	spread, _ := pyramidDataset(t, rng, 700, func() float64 { return 1 }, false)
	line := make([]attr.Object, 50)
	for i := range line {
		line[i].Loc = geom.Point{X: 7, Y: float64(rng.Intn(20))}
	}
	for _, c := range []struct {
		name string
		objs []attr.Object
	}{
		{"lattice", lattice.Objects},
		{"spread", spread.Objects},
		{"vertical-line", line},
		{"one-point", line[:1]},
	} {
		var tb tables
		tb.layAnchors(c.objs)
		g := &Geometry{n: len(c.objs), pts: tb.pts}
		g.raiseLevel()
		want := referenceLevel(levelGrid(g.n), g.pts)
		assertSameLevel(t, c.name, g.lvl, want)
	}
}
