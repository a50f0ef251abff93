package sweep

import (
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

// stripModeCases enumerates the rule and the two evaluators it can pick,
// each forced: the flat pass, and the tree walk seeding every dirty range.
var stripModeCases = []struct {
	name string
	prep func(s *Solver)
}{
	{"auto", func(s *Solver) { s.stripMode = stripAuto }},
	{"flat-only", func(s *Solver) { s.stripMode = stripFlat }},
	{"tree-only", func(s *Solver) { s.stripMode = stripTree }},
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

// TestFlatStripBitIdentical: every strip mode — the rule, the flat merge
// pass forced and the seeded Fenwick walk forced — returns the classic
// rescan's answer bit for bit on integer-valued channels. The
// fixture snaps a third of the points to a coarse grid, so duplicate
// edge positions (deduplicated into shared interval boundaries) and the
// clamped first/last intervals (probes before/after all interior
// deltas) are all exercised.
func TestFlatStripBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 20; trial++ {
		n := incrMinRects + rng.Intn(180)
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
		for si, space := range spaces {
			want, wok := classic.SolveWithin(space)
			for _, mc := range stripModeCases {
				s, err := New(rects, q)
				if err != nil {
					t.Fatal(err)
				}
				s.setIncremental(true)
				mc.prep(s)
				got, gok := s.SolveWithin(space)
				expectSame(t, mc.name, want, got, wok, gok)
				_ = si
			}
		}
	}
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

// TestFlatStripFixedPoint: the int64 instantiation rides the same
// evaluators; real channels as one limb, two or three must come back
// bit-identical to the classic walk over float limbs in every mode.
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
			for _, mc := range stripModeCases {
				s, err := New(rects, q)
				if err != nil {
					t.Fatal(err)
				}
				s.setIncremental(true)
				mc.prep(s)
				got, gok := s.SolveWithin(space)
				expectSame(t, kind.name+"/"+mc.name, want, got, wok, gok)
				if s.Stats.FlatStrips+s.Stats.FenwickStrips == 0 {
					t.Fatalf("%s/%s: the incremental sweep did not run", kind.name, mc.name)
				}
			}
		}
	}
}

// TestFlatStripDegenerateSpaces: zero-width strips in both axes — a
// zero-height space falls through to the classic line scan, and spaces
// narrower than any rectangle leave a single interval — must agree
// with the classic rescan in every mode.
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
	for si, space := range spaces {
		want, wok := classic.SolveWithin(space)
		for _, mc := range stripModeCases {
			s, err := New(rects, q)
			if err != nil {
				t.Fatal(err)
			}
			s.setIncremental(true)
			mc.prep(s)
			got, gok := s.SolveWithin(space)
			expectSame(t, mc.name, want, got, wok, gok)
			_ = si
		}
	}
}

// TestStripModeCounters: a forced mode pins the evaluator, and the Stats
// counters must say so — the flat mode touches no Fenwick strip and the
// tree mode no flat strip; the rule accounts every dirty strip to exactly
// one side.
func TestStripModeCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	rects, q := incrFixture(t, rng, incrMinRects+150)
	space := asp.Space(rects)
	run := func(m stripMode) Stats {
		s, err := New(rects, q)
		if err != nil {
			t.Fatal(err)
		}
		s.setIncremental(true)
		s.stripMode = m
		s.SolveWithin(space)
		return s.Stats
	}
	flat := run(stripFlat)
	if flat.FlatStrips == 0 || flat.FenwickStrips != 0 {
		t.Fatalf("flat-only: %+v", flat)
	}
	fen := run(stripTree)
	if fen.FenwickStrips == 0 || fen.FlatStrips != 0 {
		t.Fatalf("tree-only: %+v", fen)
	}
	auto := run(stripAuto)
	if auto.FlatStrips+auto.FenwickStrips == 0 {
		t.Fatalf("auto accounted no strips: %+v", auto)
	}
	if auto.FlatStrips+auto.FenwickStrips != flat.FlatStrips {
		t.Fatalf("auto strip accounting %d+%d != %d dirty strips",
			auto.FlatStrips, auto.FenwickStrips, flat.FlatStrips)
	}
}

// TestStripPoolModes: a pre-sized solver (slab scratch, the production
// path) summing in the limbs of both sets agrees with classic across
// modes after Rebind, and its pre-sized dif/run scratch survives reuse
// across solves.
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
	for _, mc := range stripModeCases {
		s, err := NewSized(q, 512)
		if err != nil {
			t.Fatal(err)
		}
		mc.prep(s)
		bindObjects(s, limbs, rects, nil)
		got, gok := s.SolveWithin(space)
		expectSame(t, "pool/"+mc.name, want, got, wok, gok)
		// Rebind to a different set: scratch reuse must not leak state.
		bindObjects(s, limbs, rects2, nil)
		got2, gok2 := s.SolveWithin(space2)
		expectSame(t, "pool-rebind/"+mc.name, want2, got2, wok2, gok2)
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

// bindObjects binds s to rects over base, summing in the limbs l: their
// rows flattened in l into a table of their own, as New flattens its
// objects.
func bindObjects(s *Solver, l *agg.Limbs, rects []asp.RectObject, base []float64) {
	tab, geo, ids := rowsOf(s.query.F, l, rects)
	s.Bind(l, tab)
	s.Rebind(geo, ids, base)
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
// contract on both the classic scan and every incremental strip mode:
// any cap at or above the space's optimum returns SolveWithin's result
// bit for bit (the open cap keeps exact ties evaluable), a cap below it
// returns the untouched +Inf sentinel with a nil Rep, and running a
// capped solve must not leak the cap into a following uncapped solve.
func TestSolveWithinCappedBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 12; trial++ {
		n := incrMinRects + rng.Intn(160)
		rects, q := incrFixture(t, rng, n)
		space := asp.Space(rects)
		solvers := map[string]*Solver{}
		for _, incremental := range []bool{false, true} {
			for _, mc := range stripModeCases {
				s, err := New(rects, q)
				if err != nil {
					t.Fatal(err)
				}
				s.setIncremental(incremental)
				mc.prep(s)
				name := mc.name
				if !incremental {
					name = "classic/" + mc.name
				}
				solvers[name] = s
			}
		}
		ref := solvers["classic/auto"]
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
