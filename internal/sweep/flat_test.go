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

// incrComposite is the integer-valued composite of the flat-pass
// fixtures: fD over four categories and fS over a numeric value.
func incrComposite(tb testing.TB) *agg.Composite {
	tb.Helper()
	schema, err := attr.NewSchema(
		attr.Attribute{Name: "cat", Kind: attr.Categorical, Domain: []string{"a", "b", "c", "d"}},
		attr.Attribute{Name: "val", Kind: attr.Numeric},
	)
	if err != nil {
		tb.Fatal(err)
	}
	f, err := agg.New(schema,
		agg.Spec{Kind: agg.Distribution, Attr: "cat"},
		agg.Spec{Kind: agg.Sum, Attr: "val"},
	)
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

// incrFixture builds an integer-valued workload of n rectangles
// (incrComposite over small integers) over [0, 100]², a third of them
// snapped to a lattice of step 4, so edge ordering corner cases get
// exercised.
func incrFixture(t *testing.T, rng *rand.Rand, n int) ([]asp.RectObject, asp.Query) {
	t.Helper()
	f := incrComposite(t)
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

// production returns a solver built as DS-Search and GI-DS build theirs
// (NewSized), bound to rects and q and summing in the limbs New certifies
// over them: it sweeps every space by the flat pass.
func production(tb testing.TB, rects []asp.RectObject, q asp.Query) *Solver {
	tb.Helper()
	s := NewSized()
	bindObjects(s, q, limbsOver(tb, q.F, rects), rects, nil)
	return s
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

// TestFlatStripBitIdentical: where the flat pass marches furthest — one
// set past 2 048 rectangles and the sparse shape, whose dirty strips walk
// across some two thousand intervals to reach their one or two dirty ones
// — a production solver returns the answer of New's classic walk bit for
// bit, in a sub-space and over the whole plane (Solve).
func TestFlatStripBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	type input struct {
		rects  []asp.RectObject
		q      asp.Query
		spaces []geom.Rect
	}
	rects, q := incrFixture(t, rng, 2049+rng.Intn(20))
	sparse, sq := sparseFixture(t, rng)
	for i, in := range []input{
		{rects, q, []geom.Rect{{MinX: 10, MinY: 10, MaxX: 60, MaxY: 70}}},
		{sparse, sq, []geom.Rect{sparseSpace}},
	} {
		classic, err := New(in.rects, in.q)
		if err != nil {
			t.Fatal(err)
		}
		s := production(t, in.rects, in.q)
		for si, space := range in.spaces {
			want, wok := classic.SolveWithin(space)
			got, gok := s.SolveWithin(space)
			expectSameBits(t, fmt.Sprintf("input %d (n=%d) space %d", i, len(in.rects), si), want, got, wok, gok)
		}
		expectSameBits(t, fmt.Sprintf("input %d (n=%d) Solve", i, len(in.rects)), classic.Solve(), s.Solve(), true, true)
		if s.Stats.FlatStrips == 0 || classic.Stats.FlatStrips != 0 {
			t.Fatalf("input %d: flat strips %d production, %d classic: want the flat pass in production only", i, s.Stats.FlatStrips, classic.Stats.FlatStrips)
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

// TestFlatStripFixedPoint: on sets of 1 to 47 rectangles, too few for
// every kind's limbs to take the shape it names, real channels ride a
// production solver's flat pass as scaled int64 columns and must come back
// bit-identical to New's classic walk over float limbs.
func TestFlatStripFixedPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, kind := range realKinds {
		for trial := 0; trial < 11; trial++ {
			n := 1 + rng.Intn(47)
			rects, q := realFixture(t, rng, n, kind.num)
			classic, err := New(rects, q)
			if err != nil {
				t.Fatal(err)
			}
			space := asp.Space(rects)
			want, wok := classic.SolveWithin(space)
			s := production(t, rects, q)
			got, gok := s.SolveWithin(space)
			expectSameBits(t, fmt.Sprintf("%s trial %d (n=%d)", kind.name, trial, n), want, got, wok, gok)
			if s.Stats.FlatStrips == 0 {
				t.Fatalf("%s trial %d: the flat pass did not run", kind.name, trial)
			}
		}
	}
}

// TestFlatStripDegenerateSpaces: a zero-height space is one strip of the
// flat pass, the line at its height, and a zero-width one is one interval,
// the column at its x; with near-degenerate and tiny spaces, they must
// agree with New's classic walk bit for bit. Some columns and lines lie
// on the fixture's lattice, where rectangles end: a rectangle with an edge
// on a column or a line does not cover it.
func TestFlatStripDegenerateSpaces(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < 12; trial++ {
		rects, q := incrFixture(t, rng, 1+rng.Intn([]int{10, 200}[trial%2]))
		spaces := []geom.Rect{
			{MinX: 5, MinY: 50, MaxX: 95, MaxY: 50},     // zero height
			{MinX: 48, MinY: 5, MaxX: 48, MaxY: 95},     // zero width, on the lattice
			{MinX: 5, MinY: 48, MaxX: 95, MaxY: 48},     // zero height, on the lattice
			{MinX: 50, MinY: 50, MaxX: 50, MaxY: 50},    // a point
			{MinX: 48, MinY: 48, MaxX: 48, MaxY: 48},    // a point on the lattice
			{MinX: 50, MinY: 5, MaxX: 50.001, MaxY: 95}, // near-degenerate width
			{MinX: 49, MinY: 49, MaxX: 51, MaxY: 51},    // tiny interior window
		}
		// One rectangle per lattice line has an edge on it.
		for _, r := range []geom.Rect{{MinX: 48, MinY: 0, MaxX: 60, MaxY: 100}, {MinX: 30, MinY: 0, MaxX: 48, MaxY: 100},
			{MinX: 0, MinY: 48, MaxX: 100, MaxY: 70}, {MinX: 0, MinY: 30, MaxX: 100, MaxY: 48}} {
			rects = append(rects, asp.RectObject{Rect: r, Obj: rects[0].Obj})
		}
		classic, err := New(rects, q)
		if err != nil {
			t.Fatal(err)
		}
		s := production(t, rects, q)
		for si, space := range spaces {
			want, wok := classic.SolveWithin(space)
			got, gok := s.SolveWithin(space)
			if !wok {
				t.Fatalf("trial %d space %d: the classic walk found nothing", trial, si)
			}
			expectSameBits(t, fmt.Sprintf("trial %d space %d", trial, si), want, got, wok, gok)
		}
	}
}

// pooledSet is one rectangle set of a pooled solver's table: rows lo to
// hi, and the answer New's classic walk gives over the whole plane.
type pooledSet struct {
	rects  []asp.RectObject
	lo, hi int
	want   asp.Result
}

// pooled returns a production solver bound to one table of two sets'
// rows, as a pyramid's core holds every set a search sweeps, summing in
// the limbs of both — one set past 2 048 rectangles, one of a few — and
// a rebind to either set.
func pooled(t *testing.T, rng *rand.Rand) (*Solver, []pooledSet, func(pooledSet)) {
	t.Helper()
	rects, q := incrFixture(t, rng, 2049+rng.Intn(20))
	rects2, _ := incrFixture(t, rng, 1+rng.Intn(40))
	limbs := limbsOver(t, q.F, rects, rects2)
	tab, geo, ids := rowsOf(q.F, limbs, append(slices.Clone(rects), rects2...))
	s := NewSized()
	s.Bind(limbs, tab, planOf(q, limbs))
	sets := []pooledSet{{rects: rects, hi: len(rects)}, {rects: rects2, lo: len(rects), hi: len(geo)}}
	for i := range sets {
		classic, err := New(sets[i].rects, q)
		if err != nil {
			t.Fatal(err)
		}
		sets[i].want = classic.Solve()
	}
	return s, sets, func(set pooledSet) { s.Rebind(geo[set.lo:set.hi], ids[set.lo:set.hi], nil) }
}

// TestStripPoolModes: a pooled production solver agrees with New's
// classic walk on each set after Rebind, bit for bit, rebound back and
// forth so that scratch reuse cannot leak state.
func TestStripPoolModes(t *testing.T) {
	s, sets, rebind := pooled(t, rand.New(rand.NewSource(89)))
	for round := range 2 {
		for i, set := range sets {
			rebind(set)
			expectSameBits(t, fmt.Sprintf("round %d set %d (n=%d)", round, i, len(set.rects)), set.want, s.Solve(), true, true)
		}
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

func limbsOver(tb testing.TB, f *agg.Composite, sets ...[]asp.RectObject) *agg.Limbs {
	tb.Helper()
	var raw []agg.Contrib
	for _, set := range sets {
		for _, r := range set {
			raw = f.AppendContribs(r.Obj, raw)
		}
	}
	var l agg.Limbs
	if err := l.Certify(f.Channels(), raw); err != nil {
		tb.Fatal(err)
	}
	return &l
}

// TestSolveWithinCappedBitIdentical pins the capped evaluation
// contract on both New's classic walk and a production solver's flat
// pass, the sparse shape among its inputs:
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
			rects, q = incrFixture(t, rng, 1+rng.Intn(200))
		} else {
			rects, q = sparseFixture(t, rng)
		}
		space := asp.Space(rects)
		ref, err := New(rects, q)
		if err != nil {
			t.Fatal(err)
		}
		solvers := map[string]*Solver{"classic": ref, "production": production(t, rects, q)}
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

// masterFixture is n a×b rectangles in master order — anchors ascending
// in x, so MinX = x − a and MaxX = x each ascend — with a third of the
// anchors on a lattice of step a, where one rectangle's MinX is another's
// MaxX, over incrComposite.
func masterFixture(t *testing.T, rng *rand.Rand, n int) ([]asp.RectObject, asp.Query) {
	t.Helper()
	rects, q := incrFixture(t, rng, n)
	const a, b = 4, 6
	for i := range rects {
		x, y := rects[i].Obj.Loc.X, rects[i].Obj.Loc.Y
		if rng.Intn(3) == 0 {
			x = float64(rng.Intn(25)) * a
		}
		rects[i].Obj.Loc.X = x
		rects[i].Rect = geom.Rect{MinX: x - a, MinY: y - b, MaxX: x, MaxY: y}
	}
	slices.SortStableFunc(rects, func(p, q asp.RectObject) int { return cmpLess(p.Rect.MaxX, q.Rect.MaxX) })
	return rects, q
}

// negZero is −0, a zero-width space's bound whose sign its column keeps.
var negZero = math.Copysign(0, -1)

// TestFlatPassMasterOrderMatchesShuffled: the flat pass answers the same
// bits on rectangles in master order, whose MinX and MaxX runs it merges
// as they come, and on the same rectangles shuffled, whose runs it sorts
// first — and the classic walk's answer — in spaces of positive area,
// zero width and zero height, with edges shared between one rectangle's
// MinX and another's MaxX, on and off the spaces' lines, and a column
// between a −0 and a +0 bound, where the column's x is the space's MinX
// to the sign.
func TestFlatPassMasterOrderMatchesShuffled(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 16; trial++ {
		rects, q := masterFixture(t, rng, 2+rng.Intn([]int{12, 300}[trial%2]))
		var inc incrState
		geo := make([]geom.Rect, len(rects))
		for i := range rects {
			geo[i] = rects[i].Rect
		}
		if byMin, byMax := inc.xOrders(geo); !slices.IsSorted(byMin) || !slices.IsSorted(byMax) {
			t.Fatalf("trial %d: master order was not taken as its own x order", trial)
		}
		// Shuffled until the MinX run no longer ascends, so the sort runs.
		shuffled := slices.Clone(rects)
		for range 20 {
			if !slices.IsSortedFunc(shuffled, func(p, q asp.RectObject) int { return cmpLess(p.Rect.MinX, q.Rect.MinX) }) {
				break
			}
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		}
		classic, err := New(rects, q)
		if err != nil {
			t.Fatal(err)
		}
		master, mixed := production(t, rects, q), production(t, shuffled, q)
		spaces := []geom.Rect{
			{MinX: 10, MinY: 10, MaxX: 60, MaxY: 70},
			{MinX: 20, MinY: 5, MaxX: 48, MaxY: 95},     // edges on the lattice
			{MinX: 48, MinY: 5, MaxX: 48, MaxY: 95},     // zero width, on the lattice
			{MinX: 50, MinY: 5, MaxX: 50, MaxY: 95},     // zero width
			{MinX: 5, MinY: 50, MaxX: 95, MaxY: 50},     // zero height
			{MinX: 44, MinY: 48, MaxX: 44, MaxY: 48},    // a point on the lattice
			{MinX: negZero, MinY: 5, MaxX: 0, MaxY: 95}, // zero width at −0 … +0: the column is −0
			{MinX: 0, MinY: 5, MaxX: negZero, MaxY: 95}, // and at +0 … −0, +0
			asp.Space(rects),
		}
		for si, space := range spaces {
			want, wok := classic.SolveWithin(space)
			got, gok := master.SolveWithin(space)
			expectSameBits(t, fmt.Sprintf("trial %d space %d master order", trial, si), want, got, wok, gok)
			got, gok = mixed.SolveWithin(space)
			expectSameBits(t, fmt.Sprintf("trial %d space %d shuffled", trial, si), want, got, wok, gok)
		}
	}
}
