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

// TestFracBits pins the fraction-bit computation at the heart of the
// fixed-point certificate.
func TestFracBits(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0},
		{1, 0},
		{-3, 0},
		{1 << 30, 0},
		{0.5, 1},
		{-0.5, 1},
		{2.25, 2},
		{0.375, 3}, // 3/8
		{1.0 / 1024, 10},
		{math.Ldexp(1, -62), 62},
	}
	for _, c := range cases {
		if got := fracBits(c.v); got != c.want {
			t.Errorf("fracBits(%g) = %d, want %d", c.v, got, c.want)
		}
	}
	// 0.1 is not 1/10 but the nearest double, m·2^-55 — exactly
	// representable, so a *single* such value passes the plain
	// certificate; it is the Σ|v|·2^55 headroom bound that rejects
	// decimal-grid channels from the plain path in practice — they ride
	// the two-float fallback instead (TestCertificatePerChannel).
	if got := fracBits(0.1); got != 55 {
		t.Errorf("fracBits(0.1) = %d, want 55", got)
	}
	// Unquantizable inputs must exceed the shift budget.
	for _, v := range []float64{math.NaN(), math.Inf(1), 5e-324, 1e-308, math.Ldexp(1, -100)} {
		if got := fracBits(v); got <= maxShift {
			t.Errorf("fracBits(%g) = %d, want > maxShift", v, got)
		}
	}
}

// quantSearcher builds a Searcher over the given objects/composite and
// returns it with its tables for certificate inspection.
func quantSearcher(t *testing.T, rects []asp.RectObject, f *agg.Composite) *Searcher {
	t.Helper()
	q := asp.Query{F: f, Target: make([]float64, f.Dims())}
	s, err := NewSearcher(rects, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCertificatePerChannel: channels pass and fail the certificates
// individually — dyadic reals pass the plain certificate, decimal-grid
// (base-10) channels fail it but pass the two-float fallback (so the
// whole composite is grid-exact and sorts), denormals and NaN fail
// both.
func TestCertificatePerChannel(t *testing.T) {
	schema, err := attr.NewSchema(
		attr.Attribute{Name: "dyadic", Kind: attr.Numeric},
		attr.Attribute{Name: "decimal", Kind: attr.Numeric},
	)
	if err != nil {
		t.Fatal(err)
	}
	f, err := agg.New(schema,
		agg.Spec{Kind: agg.Sum, Attr: "dyadic"},
		agg.Spec{Kind: agg.Sum, Attr: "decimal"},
		agg.Spec{Kind: agg.Count},
	)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	objs := make([]attr.Object, 40)
	rects := make([]asp.RectObject, 40)
	for i := range objs {
		x, y := rng.Float64()*10, rng.Float64()*10
		objs[i] = attr.Object{Loc: geom.Point{X: x, Y: y}, Values: []attr.Value{
			{Num: float64(rng.Intn(41)-20) * 0.25}, // quarters: certificate passes
			{Num: 0.1 * float64(1+rng.Intn(9))},    // tenths: not dyadic, fails
		}}
		rects[i] = asp.RectObject{Rect: geom.Rect{MinX: x - 1, MinY: y - 1, MaxX: x, MaxY: y}, Obj: &objs[i]}
	}
	s := quantSearcher(t, rects, f)
	tab := s.tab
	if tab.allExact {
		t.Fatal("decimal channel should fail the plain certificate")
	}
	// Channel layout: fS(dyadic)=0..2, fS(decimal)=3..5, fC=6.
	if !tab.chOK[0] {
		t.Error("dyadic sum channel should pass")
	}
	if !tab.chOK[3] || tab.twoOf[3] < 0 {
		t.Errorf("decimal sum channel should pass via the two-float fallback (ok=%v two=%d)",
			tab.chOK[3], tab.twoOf[3])
	}
	if tab.twoOf[0] >= 0 {
		t.Error("dyadic channel must not need the two-float fallback")
	}
	if !tab.chOK[6] {
		t.Error("count channel should pass")
	}
	if tab.chScale[0] != 4 || tab.chInv[0] != 0.25 {
		t.Errorf("dyadic scale = %g/%g, want 4/0.25", tab.chScale[0], tab.chInv[0])
	}
	if tab.eff != tab.chans+tab.twoCount || tab.twoCount < 1 {
		t.Errorf("eff=%d chans=%d twoCount=%d inconsistent", tab.eff, tab.chans, tab.twoCount)
	}
	// With every channel plain- or two-float-certified the composite is
	// grid-exact: the master sorts and the windows come on.
	if !tab.sortExact || !tab.sorted {
		t.Fatal("decimal+dyadic composite should be grid-exact and sorted")
	}
	// The split is error-free: for every contribution on a two-float
	// channel, the rewritten hi part plus its shadow lo part must equal
	// the original contribution value bit-for-bit.
	var orig []agg.Contrib
	for id := int32(0); int(id) < len(s.rects); id++ {
		orig = f.AppendContribs(s.rects[id].Obj, orig[:0])
		cbs := tab.rectContribs(id)
		shadow := func(sh int32) float64 {
			for j := range cbs {
				if cbs[j].Ch == int(sh) {
					return cbs[j].V
				}
			}
			t.Fatalf("rect %d: shadow slot %d missing", id, sh)
			return 0
		}
		oi := 0
		for k := 0; k < len(cbs); k++ {
			if cbs[k].Ch >= tab.chans {
				continue // shadow entries are checked with their primary
			}
			want := orig[oi]
			oi++
			if sh := tab.twoOf[cbs[k].Ch]; sh >= 0 {
				if got := cbs[k].V + shadow(sh); math.Float64bits(got) != math.Float64bits(want.V) {
					t.Fatalf("rect %d ch %d: hi+lo = %v, original = %v", id, cbs[k].Ch, got, want.V)
				}
			} else if math.Float64bits(cbs[k].V) != math.Float64bits(want.V) {
				t.Fatalf("rect %d ch %d: value changed: %v != %v", id, cbs[k].Ch, cbs[k].V, want.V)
			}
		}
	}
}

// TestCertificateDenormalAndHeadroom: denormal-adjacent values and
// channels whose scaled mass exceeds the 2^52 headroom fall back.
func TestCertificateDenormalAndHeadroom(t *testing.T) {
	schema, err := attr.NewSchema(attr.Attribute{Name: "v", Kind: attr.Numeric})
	if err != nil {
		t.Fatal(err)
	}
	f, err := agg.New(schema, agg.Spec{Kind: agg.Sum, Attr: "v"})
	if err != nil {
		t.Fatal(err)
	}
	build := func(vals []float64) *tables {
		objs := make([]attr.Object, len(vals))
		rects := make([]asp.RectObject, len(vals))
		for i, v := range vals {
			x := float64(i)
			objs[i] = attr.Object{Loc: geom.Point{X: x, Y: x}, Values: []attr.Value{{Num: v}}}
			rects[i] = asp.RectObject{Rect: geom.Rect{MinX: x - 1, MinY: x - 1, MaxX: x, MaxY: x}, Obj: &objs[i]}
		}
		return quantSearcher(t, rects, f).tab
	}
	if tab := build([]float64{0.5, 5e-324}); tab.chOK[0] {
		t.Error("denormal-bearing channel must fail both certificates")
	}
	if tab := build([]float64{0.5, math.NaN()}); tab.chOK[0] {
		t.Error("NaN-bearing channel must fail both certificates")
	}
	if tab := build([]float64{0.5, math.Inf(1)}); tab.chOK[0] {
		t.Error("Inf-bearing channel must fail both certificates")
	}
	// A tiny dyadic value forces a huge shift; a large one then blows the
	// plain scaled-sum headroom — but the two-float fallback splits the
	// spread across its hi/lo planes and serves the channel exactly.
	if tab := build([]float64{math.Ldexp(1, -50), 16}); !tab.chOK[0] || tab.twoOf[0] < 0 {
		t.Error("exponent-range overflow should ride the two-float fallback")
	}
	if tab := build([]float64{math.Ldexp(1, -50), math.Ldexp(1, -49)}); !tab.chOK[0] {
		t.Error("small dyadic values within headroom should pass")
	} else if tab.twoOf[0] >= 0 {
		t.Error("within-headroom dyadic values must pass plainly, not via two-float")
	}
	// Spreads beyond even the two-float budget — a denormal-scale tail
	// under a large head — must still fall back to the classic path.
	if tab := build([]float64{math.Ldexp(1, -1060), 16}); tab.chOK[0] {
		t.Error("beyond-two-float spread must fail both certificates")
	}
}

// quantRects builds randomized uniform-size rect objects over a
// two-numeric-attribute schema with dyadic values (rating quarters in
// [0,10], visits halves in [1,500]), mirroring the POIQuant workload.
// width/height <= 0 produce degenerate zero-extent rectangles.
func quantRects(rng *rand.Rand, n int, w, h float64) []asp.RectObject {
	objs := make([]attr.Object, n)
	rects := make([]asp.RectObject, n)
	for i := range rects {
		x := rng.Float64() * 100
		y := rng.Float64() * 100
		if rng.Intn(2) == 0 {
			x = float64(rng.Intn(20)) * 5
			y = float64(rng.Intn(20)) * 5
		}
		objs[i] = attr.Object{
			Loc: geom.Point{X: x, Y: y},
			Values: []attr.Value{
				{Num: float64(rng.Intn(41)) * 0.25},
				{Num: 1 + float64(rng.Intn(999))*0.5},
			},
		}
		rects[i] = asp.RectObject{
			Rect: geom.Rect{MinX: x - w, MinY: y - h, MaxX: x, MaxY: y},
			Obj:  &objs[i],
		}
	}
	return rects
}

// realSchemaF2 compiles the F2-shaped composite (fS + fA) against the
// two-numeric-attribute schema used by quantRects. Its fA component
// carries a min/max slot.
func realSchemaF2(t *testing.T) *agg.Composite {
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
	return f
}

// TestUnquantizableTakesOldPath: a composite whose every channel fails
// both certificates silently keeps the seed behavior — no sort, original
// master order. Denormal tails on both signs defeat the two-float
// fallback on every sum channel.
func TestUnquantizableTakesOldPath(t *testing.T) {
	schema, err := attr.NewSchema(attr.Attribute{Name: "v", Kind: attr.Numeric})
	if err != nil {
		t.Fatal(err)
	}
	f, err := agg.New(schema, agg.Spec{Kind: agg.Sum, Attr: "v"})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	objs := make([]attr.Object, 60)
	rects := make([]asp.RectObject, 60)
	for i := range rects {
		x, y := rng.Float64()*10, rng.Float64()*10
		v := rng.NormFloat64()
		switch i % 10 {
		case 0:
			v = 5e-324 // denormal-adjacent
		case 5:
			v = -5e-324
		}
		objs[i] = attr.Object{Loc: geom.Point{X: x, Y: y}, Values: []attr.Value{{Num: v}}}
		rects[i] = asp.RectObject{Rect: geom.Rect{MinX: x - 1, MinY: y - 1, MaxX: x, MaxY: y}, Obj: &objs[i]}
	}
	s := quantSearcher(t, rects, f)
	if s.tab.allExact || s.tab.sortExact || s.tab.sorted {
		t.Fatalf("unquantizable composite must fall back: %+v", s.tab.chOK)
	}
	for i := range rects {
		if s.rects[i].Obj != rects[i].Obj {
			t.Fatal("master order changed for an unquantizable composite")
		}
	}
}

// TestSearchEquivalenceRealValued runs whole searches over the
// real-valued min/max composite: a search is a pure function of its
// input, so a repeated run answers bit for bit alike — point and
// representation included, with the first run's scratch recycled — and
// the distance is the sweep baseline's.
func TestSearchEquivalenceRealValued(t *testing.T) {
	f := realSchemaF2(t)
	rng := rand.New(rand.NewSource(1234))
	slabs := &SlabCache{}
	for trial := 0; trial < 6; trial++ {
		rects := quantRects(rng, 400+rng.Intn(400), 9, 8)
		target := make([]float64, f.Dims())
		target[0] = 5000
		target[1] = 10
		q := asp.Query{F: f, Target: target}

		solve := func() asp.Result {
			s, err := NewSearcher(rects, q, Options{Slabs: slabs})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Release()
			return s.Solve()
		}
		want, got := solve(), solve()
		if got.Dist != want.Dist || got.Point != want.Point {
			t.Fatalf("trial %d: rerun got %v@%v, want %v@%v", trial, got.Dist, got.Point, want.Dist, want.Point)
		}
		for i := range want.Rep {
			if math.Float64bits(got.Rep[i]) != math.Float64bits(want.Rep[i]) {
				t.Fatalf("trial %d: rerun rep[%d] %v != %v", trial, i, got.Rep[i], want.Rep[i])
			}
		}
		sw, err := sweep.New(rects, q)
		if err != nil {
			t.Fatal(err)
		}
		if base := sw.Solve(); math.Abs(base.Dist-want.Dist) > 1e-9 {
			t.Fatalf("trial %d: distance %v, sweep baseline %v", trial, want.Dist, base.Dist)
		}
	}
}
