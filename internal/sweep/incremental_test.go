package sweep

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"asrs/internal/agg"
	"asrs/internal/asp"
	"asrs/internal/attr"
	"asrs/internal/geom"
)

// incrFixture builds an integer-valued workload (fD + fS over small
// integers) large enough to clear incrMinRects, with coordinate
// collisions so edge ordering corner cases get exercised.
func incrFixture(t *testing.T, rng *rand.Rand, n int) ([]asp.RectObject, asp.Query) {
	t.Helper()
	schema, err := attr.NewSchema(
		attr.Attribute{Name: "cat", Kind: attr.Categorical, Domain: []string{"a", "b", "c", "d"}},
		attr.Attribute{Name: "val", Kind: attr.Numeric},
	)
	if err != nil {
		t.Fatal(err)
	}
	f, err := agg.New(schema,
		agg.Spec{Kind: agg.Distribution, Attr: "cat"},
		agg.Spec{Kind: agg.Sum, Attr: "val"},
	)
	if err != nil {
		t.Fatal(err)
	}
	objs := make([]attr.Object, n)
	rects := make([]asp.RectObject, n)
	w := 4 + rng.Float64()*8
	h := 3 + rng.Float64()*8
	for i := range rects {
		x := rng.Float64() * 100
		y := rng.Float64() * 100
		if rng.Intn(3) == 0 {
			x = float64(rng.Intn(25)) * 4
			y = float64(rng.Intn(25)) * 4
		}
		objs[i] = attr.Object{
			Loc: geom.Point{X: x, Y: y},
			Values: []attr.Value{
				{Cat: rng.Intn(4)},
				{Num: float64(rng.Intn(9) - 4)},
			},
		}
		rects[i] = asp.RectObject{Rect: geom.Rect{MinX: x - w, MinY: y - h, MaxX: x, MaxY: y}, Obj: &objs[i]}
	}
	target := make([]float64, f.Dims())
	for i := range target {
		target[i] = float64(rng.Intn(20))
	}
	q := asp.Query{F: f, Target: target}
	return rects, q
}

// TestIncrementalSweepBitIdentical: for integer-valued composites the
// Fenwick-backed incremental sweep must return the exact same answer —
// distance, point and representation — as the classic per-strip rescan,
// over randomized inputs and spaces (the skip rule only elides
// re-evaluations that cannot win the strict improvement test).
func TestIncrementalSweepBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 25; trial++ {
		n := incrMinRects + rng.Intn(200)
		rects, q := incrFixture(t, rng, n)
		spaces := []geom.Rect{
			asp.Space(rects),
			{MinX: 10, MinY: 10, MaxX: 60, MaxY: 70},
			{MinX: rng.Float64() * 50, MinY: rng.Float64() * 50, MaxX: 50 + rng.Float64()*50, MaxY: 50 + rng.Float64()*50},
		}
		classic, err := New(rects, q)
		if err != nil {
			t.Fatal(err)
		}
		incr, err := New(rects, q)
		if err != nil {
			t.Fatal(err)
		}
		incr.setIncremental(true)
		for si, space := range spaces {
			cr, cok := classic.SolveWithin(space)
			ir, iok := incr.SolveWithin(space)
			if cok != iok {
				t.Fatalf("trial %d space %d: found %v vs %v", trial, si, cok, iok)
			}
			if !cok {
				continue
			}
			if cr.Dist != ir.Dist || cr.Point != ir.Point {
				t.Fatalf("trial %d space %d: classic %g@%v, incremental %g@%v",
					trial, si, cr.Dist, cr.Point, ir.Dist, ir.Point)
			}
			for d := range cr.Rep {
				if math.Float64bits(cr.Rep[d]) != math.Float64bits(ir.Rep[d]) {
					t.Fatalf("trial %d space %d: rep[%d] %v vs %v", trial, si, d, cr.Rep[d], ir.Rep[d])
				}
			}
		}
	}
}

// TestIncrementalSweepSolve: the full-plane Solve agrees too (exercises
// rebinds and the empty-cover candidate around the incremental core).
func TestIncrementalSweepSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	rects, q := incrFixture(t, rng, incrMinRects+60)
	classic, err := New(rects, q)
	if err != nil {
		t.Fatal(err)
	}
	incr, err := New(rects, q)
	if err != nil {
		t.Fatal(err)
	}
	incr.setIncremental(true)
	cr := classic.Solve()
	ir := incr.Solve()
	if cr.Dist != ir.Dist || cr.Point != ir.Point {
		t.Fatalf("classic %g@%v, incremental %g@%v", cr.Dist, cr.Point, ir.Dist, ir.Point)
	}
}

// TestIncrementalSweepFixedPoint: real-valued composites ride the int64
// Fenwick tree as scaled limbs — one per channel on a dyadic grid, two
// for full-mantissa reals, three for reals spread over 1e-12…1e12 — and the answer — distance, point,
// representation bits — must match the classic rescan exactly (every
// limb sum is exact, so the different accumulation orders agree, and each
// channel folds once).
func TestIncrementalSweepFixedPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, kind := range realKinds {
		for trial := 0; trial < 15; trial++ {
			rects, q := realFixture(t, rng, incrMinRects+rng.Intn(150), kind.num)
			classic, err := New(rects, q)
			if err != nil {
				t.Fatal(err)
			}
			incr, err := New(rects, q)
			if err != nil {
				t.Fatal(err)
			}
			incr.setIncremental(true)
			space := asp.Space(rects)
			cr, cok := classic.SolveWithin(space)
			ir, iok := incr.SolveWithin(space)
			checkLimbs(t, incr, kind.fine, kind.chain)
			expectSame(t, fmt.Sprintf("%s trial %d", kind.name, trial), cr, ir, cok, iok)
		}
	}
}

// TestIncrementalSweepSteadyStateAllocs: a pre-sized solver rebound to a new
// rectangle set sweeps it incrementally out of the scratch it already
// holds; all it allocates is the answer's representation. (Sorting each
// strip's dirty ranges through sort.Slice allocated per dirty strip on
// top: 200 times for sweeps like these.)
func TestIncrementalSweepSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	rects, q := incrFixture(t, rng, incrMinRects+100)
	rects2, _ := incrFixture(t, rng, incrMinRects+60)
	space := geom.Rect{MinX: 5, MinY: 5, MaxX: 95, MaxY: 95}
	for _, mc := range stripModeCases {
		// One table holds both sets' rows, as a pyramid's core holds every
		// set a search sweeps.
		limbs := limbsOver(t, q.F, rects, rects2)
		tab, geo, ids := rowsOf(q.F, limbs, append(slices.Clone(rects), rects2...))
		s, err := NewSized(q, 512)
		if err != nil {
			t.Fatal(err)
		}
		s.Bind(limbs, tab)
		mc.prep(s)
		sets := [][2]int{{0, len(rects)}, {len(rects), len(geo)}}
		i := 0
		solve := func() {
			set := sets[i%2]
			s.Rebind(geo[set[0]:set[1]], ids[set[0]:set[1]], nil)
			i++
			if _, ok := s.SolveWithin(space); !ok {
				t.Fatal("nothing found")
			}
		}
		solve()
		solve()
		before := s.Stats
		if allocs := testing.AllocsPerRun(10, solve); allocs > 1 {
			t.Fatalf("%s: a rebound incremental sweep allocates %v times, want the answer's representation only", mc.name, allocs)
		}
		if s.Stats.FlatStrips+s.Stats.FenwickStrips == before.FlatStrips+before.FenwickStrips {
			t.Fatalf("%s: the incremental sweep did not run", mc.name)
		}
	}
}
