package sweep

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"asrs/internal/agg"
	"asrs/internal/asp"
	"asrs/internal/attr"
	"asrs/internal/geom"
)

// setIncremental switches a solver between the classic per-strip rescan
// and the incremental delta sweep; a solver not built by NewSized gets an
// unbounded size cap.
func (s *Solver) setIncremental(on bool) {
	s.incremental = on
	if s.incrCap == 0 {
		s.incrCap = int(^uint(0) >> 1)
	}
}

// expectSame fails unless two results match bit for bit.
func expectSame(t *testing.T, label string, want, got asp.Result, wok, gok bool) {
	t.Helper()
	if wok != gok {
		t.Fatalf("%s: found %v vs %v", label, wok, gok)
	}
	if !wok {
		return
	}
	if want.Dist != got.Dist || want.Point != got.Point {
		t.Fatalf("%s: %g@%v vs %g@%v", label, want.Dist, want.Point, got.Dist, got.Point)
	}
	if len(want.Rep) != len(got.Rep) {
		t.Fatalf("%s: rep len %d vs %d", label, len(want.Rep), len(got.Rep))
	}
	for d := range want.Rep {
		if math.Float64bits(want.Rep[d]) != math.Float64bits(got.Rep[d]) {
			t.Fatalf("%s: rep[%d] %v vs %v", label, d, want.Rep[d], got.Rep[d])
		}
	}
}

// TestFlatStripBitIdentical: the flat merge pass returns the classic
// rescan's answer bit for bit on integer-valued channels. The fixture
// snaps a third of the points to a coarse grid, so duplicate edge
// positions (deduplicated into shared interval boundaries) and the
// clamped first/last intervals (probes before/after all interior deltas)
// are all exercised; the sparse shape marches across some two thousand
// intervals to reach each strip's one or two dirty ones.
func TestFlatStripBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	type input struct {
		rects  []asp.RectObject
		q      asp.Query
		spaces []geom.Rect
	}
	var inputs []input
	for trial := 0; trial < 20; trial++ {
		rects, q := incrFixture(t, rng, incrMinRects+rng.Intn(180))
		inputs = append(inputs, input{rects, q, []geom.Rect{
			asp.Space(rects),
			{MinX: 10, MinY: 10, MaxX: 60, MaxY: 70},
			{MinX: rng.Float64() * 50, MinY: rng.Float64() * 50, MaxX: 50 + rng.Float64()*50, MaxY: 50 + rng.Float64()*50},
		}})
	}
	rects, q := sparseFixture(t, rng)
	inputs = append(inputs, input{rects, q, []geom.Rect{sparseSpace, asp.Space(rects)}})
	for i, in := range inputs {
		classic, err := New(in.rects, in.q)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(in.rects, in.q)
		if err != nil {
			t.Fatal(err)
		}
		s.setIncremental(true)
		for si, space := range in.spaces {
			want, wok := classic.SolveWithin(space)
			got, gok := s.SolveWithin(space)
			expectSame(t, fmt.Sprintf("input %d space %d", i, si), want, got, wok, gok)
		}
		if s.Stats.FlatStrips == 0 {
			t.Fatalf("input %d: the incremental sweep did not run", i)
		}
	}
}

// sparseSpace is the space sparseFixture's rectangles are drawn over.
var sparseSpace = geom.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}

// sparseFixture is the regime a dirty strip's flat pass pays most for:
// 1 200 rectangles over sparseSpace. 800 narrow columns span its height:
// they enter at the first strip and never leave, but put some 1 600
// interval boundaries across its left 90 %. Beside them, 400 small
// rectangles at its right end, one or two quarter-wide intervals each,
// have distinct y edges, so every strip boundary moves one of them: each
// dirty strip's one or two dirty intervals lie some 1 600 intervals from
// its left end. The composite is incrComposite over small integers; the
// target is the representation at a random point, each dimension moved by
// a half, so no interval scores 0 and the columns, active in every strip,
// keep each strip's bound under any cap above the optimum.
func sparseFixture(tb testing.TB, rng *rand.Rand) ([]asp.RectObject, asp.Query) {
	tb.Helper()
	f := incrComposite(tb)
	var rects []asp.RectObject
	add := func(r geom.Rect) {
		o := &attr.Object{
			Loc:    geom.Point{X: r.MaxX, Y: r.MaxY},
			Values: []attr.Value{{Cat: rng.Intn(4)}, {Num: float64(rng.Intn(9) - 4)}},
		}
		rects = append(rects, asp.RectObject{Rect: r, Obj: o})
	}
	for range 800 {
		x := rng.Float64() * 88
		add(geom.Rect{MinX: x, MinY: -1, MaxX: x + 0.5 + rng.Float64()*1.5, MaxY: 101})
	}
	for range 400 {
		x, y := 95+0.25*float64(rng.Intn(16)), rng.Float64()*95
		add(geom.Rect{MinX: x, MinY: y, MaxX: x + 0.25*float64(1+rng.Intn(2)), MaxY: y + 0.5 + rng.Float64()*4.5})
	}
	probe := geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	target := asp.PointRepresentation(rects, f, probe)
	for d := range target {
		target[d] += 0.5
	}
	return rects, asp.Query{F: f, Target: target}
}

// realKinds are the values of the real-valued fixtures: dyadic steps
// (rating quarters, visits halves: every channel one limb), full-mantissa
// reals down to POISyn's smallest ratings (two limbs, the lo grid finer
// than 2^-62) and visits spread over 1e-12…1e12 (a chain of three).
var realKinds = []struct {
	name        string
	num         func(rng *rand.Rand) (rating, visits float64)
	fine, chain bool // some extra limb's grid is finer than 2^-62; some channel takes three limbs
}{
	{"dyadic", func(rng *rand.Rand) (float64, float64) {
		return float64(rng.Intn(41)) * 0.25, float64(rng.Intn(999))*0.5 - 200
	}, false, false},
	{"two-limb", func(rng *rand.Rand) (float64, float64) {
		return smallRating(rng), 1 + rng.Float64()*499
	}, true, false},
	{"three-limb", func(rng *rand.Rand) (float64, float64) {
		return smallRating(rng), spreadValue(rng)
	}, true, true},
}

// smallRating draws a rating in (0, 10] as POISyn's reach down to 5e-5:
// one in eight below 1e-4, the rest uniform.
func smallRating(rng *rand.Rand) float64 {
	if rng.Intn(8) == 0 {
		return 5e-5 * (1 + rng.Float64())
	}
	return rng.Float64() * 10
}

// realFixture draws n rectangles of one size over (rating, visits)
// objects of a kind, a quarter of them snapped to a coarse lattice, for
// the F2-shaped composite fS(visits) + fA(rating).
func realFixture(t *testing.T, rng *rand.Rand, n int, num func(*rand.Rand) (float64, float64)) ([]asp.RectObject, asp.Query) {
	t.Helper()
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
	)
	if err != nil {
		t.Fatal(err)
	}
	objs := make([]attr.Object, n)
	rects := make([]asp.RectObject, n)
	w := 4 + rng.Float64()*8
	h := 3 + rng.Float64()*8
	for i := range rects {
		x, y := rng.Float64()*100, rng.Float64()*100
		if rng.Intn(4) == 0 {
			x, y = float64(rng.Intn(20))*5, float64(rng.Intn(20))*5
		}
		rating, visits := num(rng)
		objs[i] = attr.Object{Loc: geom.Point{X: x, Y: y}, Values: []attr.Value{{Num: rating}, {Num: visits}}}
		rects[i] = asp.RectObject{Rect: geom.Rect{MinX: x - w, MinY: y - h, MaxX: x, MaxY: y}, Obj: &objs[i]}
	}
	return rects, asp.Query{F: f, Target: []float64{3000, 10}}
}

// checkLimbs fails unless a solver's limbs have an extra limb finer than
// 2^-62 and a chain of three where the kind asks for them.
func checkLimbs(t *testing.T, s *Solver, fine, chain bool) {
	t.Helper()
	l := s.limbs
	if chain != chained(l) {
		t.Fatalf("limbs %v, lo %v: want a chain of three: %v", l.Scale, l.Lo, chain)
	}
	finest := 0.0
	for _, sc := range l.Scale[len(l.Lo):] {
		finest = math.Max(finest, sc)
	}
	if fine != (finest > math.Ldexp(1, 62)) {
		t.Fatalf("finest lo grid 2^-%d, want finer than 2^-62: %v", shiftOf(finest), fine)
	}
}

// shiftOf returns s for a power of two 2^s.
func shiftOf(scale float64) int {
	_, e := math.Frexp(scale)
	return e - 1
}

// TestFlatStripFixedPoint: real channels as one limb, two or three ride
// the flat pass as scaled int64 columns and must come back bit-identical
// to the classic walk over float limbs.
func TestFlatStripFixedPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, kind := range realKinds {
		for trial := 0; trial < 10; trial++ {
			rects, q := realFixture(t, rng, incrMinRects+rng.Intn(120), kind.num)
			classic, err := New(rects, q)
			if err != nil {
				t.Fatal(err)
			}
			space := asp.Space(rects)
			want, wok := classic.SolveWithin(space)
			checkLimbs(t, classic, kind.fine, kind.chain)
			s, err := New(rects, q)
			if err != nil {
				t.Fatal(err)
			}
			s.setIncremental(true)
			got, gok := s.SolveWithin(space)
			expectSame(t, kind.name, want, got, wok, gok)
			if s.Stats.FlatStrips == 0 {
				t.Fatalf("%s: the incremental sweep did not run", kind.name)
			}
		}
	}
}

// TestFlatStripDegenerateSpaces: zero-width strips in both axes — a
// zero-height space falls through to the classic line scan, and spaces
// narrower than any rectangle leave a single interval — must agree
// with the classic rescan.
func TestFlatStripDegenerateSpaces(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	rects, q := incrFixture(t, rng, incrMinRects+40)
	spaces := []geom.Rect{
		{MinX: 5, MinY: 50, MaxX: 95, MaxY: 50},     // zero height: classic line strip
		{MinX: 50, MinY: 5, MaxX: 50.001, MaxY: 95}, // near-degenerate width
		{MinX: 49, MinY: 49, MaxX: 51, MaxY: 51},    // tiny interior window
	}
	classic, err := New(rects, q)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(rects, q)
	if err != nil {
		t.Fatal(err)
	}
	s.setIncremental(true)
	for si, space := range spaces {
		want, wok := classic.SolveWithin(space)
		got, gok := s.SolveWithin(space)
		expectSame(t, fmt.Sprintf("space %d", si), want, got, wok, gok)
	}
}

// TestStripPoolModes: a pre-sized solver (slab scratch, the production
// path) summing in the limbs of both sets agrees with classic after
// Rebind, and its pre-sized dif/run scratch survives reuse across solves.
func TestStripPoolModes(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	rects, q := incrFixture(t, rng, incrMinRects+100)
	rects2, _ := incrFixture(t, rng, incrMinRects+70)
	limbs := limbsOver(t, q.F, rects, rects2)
	classic, err := New(rects, q)
	if err != nil {
		t.Fatal(err)
	}
	classic2, err := New(rects2, q)
	if err != nil {
		t.Fatal(err)
	}
	space := asp.Space(rects)
	space2 := asp.Space(rects2)
	want, wok := classic.SolveWithin(space)
	want2, wok2 := classic2.SolveWithin(space2)
	s := NewSized(512)
	bindObjects(s, q, limbs, rects, nil)
	got, gok := s.SolveWithin(space)
	expectSame(t, "pool", want, got, wok, gok)
	// Rebind to a different set: scratch reuse must not leak state.
	bindObjects(s, q, limbs, rects2, nil)
	got2, gok2 := s.SolveWithin(space2)
	expectSame(t, "pool-rebind", want2, got2, wok2, gok2)
	if s.Stats.FlatStrips == 0 {
		t.Fatal("the incremental sweep did not run")
	}
}

// limbsOver certifies f's contributions over the rectangle sets, in turn.
// rowsOf returns rects in the row form a solver binds: a table of their
// rows flattened in the limbs l, and their rectangles and row ids (row i
// for rects[i]).
func rowsOf(f *agg.Composite, l *agg.Limbs, rects []asp.RectObject) (Rows, []geom.Rect, []int32) {
	geo, ids := make([]geom.Rect, len(rects)), make([]int32, len(rects))
	for i := range rects {
		geo[i], ids[i] = rects[i].Rect, int32(i)
	}
	return FlattenRows(rects, f, l), geo, ids
}

// bindObjects binds s to rects over base and to q, summing in the limbs
// l: their rows flattened in l into a table of their own, as New flattens
// its objects, and q compiled against l.
func bindObjects(s *Solver, q asp.Query, l *agg.Limbs, rects []asp.RectObject, base []float64) {
	tab, geo, ids := rowsOf(q.F, l, rects)
	s.Bind(l, tab, planOf(q, l))
	s.Rebind(geo, ids, base)
}

// planOf is q compiled against the limbs l.
func planOf(q asp.Query, l *agg.Limbs) *agg.Plan {
	var p agg.Plan
	p.Compile(q.F, l, q.Norm, q.Target, q.W)
	return &p
}

func limbsOver(t *testing.T, f *agg.Composite, sets ...[]asp.RectObject) *agg.Limbs {
	t.Helper()
	var raw []agg.Contrib
	for _, set := range sets {
		for _, r := range set {
			raw = f.AppendContribs(r.Obj, raw)
		}
	}
	var l agg.Limbs
	if err := l.Certify(f.Channels(), raw); err != nil {
		t.Fatal(err)
	}
	return &l
}

// TestSolveWithinCappedBitIdentical pins the capped evaluation
// contract on both the classic scan and the incremental sweep, the
// sparse shape among its inputs:
// any cap at or above the space's optimum returns SolveWithin's result
// bit for bit (the open cap keeps exact ties evaluable), a cap below it
// returns the untouched +Inf sentinel with a nil Rep, and running a
// capped solve must not leak the cap into a following uncapped solve.
func TestSolveWithinCappedBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial <= 12; trial++ {
		var rects []asp.RectObject
		var q asp.Query
		if trial < 12 {
			rects, q = incrFixture(t, rng, incrMinRects+rng.Intn(160))
		} else {
			rects, q = sparseFixture(t, rng)
		}
		space := asp.Space(rects)
		solvers := map[string]*Solver{}
		for name, incremental := range map[string]bool{"classic": false, "incremental": true} {
			s, err := New(rects, q)
			if err != nil {
				t.Fatal(err)
			}
			s.setIncremental(incremental)
			solvers[name] = s
		}
		ref := solvers["classic"]
		want, wok := ref.SolveWithin(space)
		if !wok {
			t.Fatalf("trial %d: reference solve found nothing", trial)
		}
		caps := []float64{
			math.Inf(1), want.Dist * 2, want.Dist + 1,
			want.Dist, // exact tie: must still be evaluated in full
		}
		for name, s := range solvers {
			for _, c := range caps {
				got, gok := s.SolveWithinCapped(space, c)
				expectSame(t, name, want, got, wok, gok)
			}
			// A cap strictly below the optimum starves every candidate:
			// the sentinel comes back untouched, found stays true.
			below := math.Nextafter(want.Dist, math.Inf(-1))
			got, gok := s.SolveWithinCapped(space, below)
			if !gok {
				t.Fatalf("%s: capped-below solve reported no candidates", name)
			}
			if got.Rep != nil || !math.IsInf(got.Dist, 1) {
				t.Fatalf("%s: capped-below solve returned %g@%v, want untouched sentinel", name, got.Dist, got.Point)
			}
			// The cap must not persist past the call.
			after, aok := s.SolveWithin(space)
			expectSame(t, name+"/after-capped", want, after, wok, aok)
		}
	}
}
