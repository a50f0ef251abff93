package dssearch

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"asrs/internal/agg"
	"asrs/internal/asp"
	"asrs/internal/attr"
	"asrs/internal/geom"
	"asrs/internal/sweep"
)

// quantSearcher builds a Searcher over the 1×1 reduction of the given
// objects and composite and returns it with its tables for certificate
// inspection.
func quantSearcher(t *testing.T, objs []attr.Object, f *agg.Composite) *Searcher {
	t.Helper()
	q := asp.Query{F: f, Target: make([]float64, f.Dims())}
	s, err := NewShapeSearcher(t, &attr.Dataset{Objects: objs}, 1, 1, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCertificatePerChannel: channels are certified individually —
// dyadic reals as one limb on their finest grid, decimal-grid (base-10)
// channels as two limbs — and the split into limbs is error-free.
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
	for i := range objs {
		x, y := rng.Float64()*10, rng.Float64()*10
		objs[i] = attr.Object{Loc: geom.Point{X: x, Y: y}, Values: []attr.Value{
			{Num: float64(rng.Intn(41)-20) * 0.25}, // quarters: certificate passes
			{Num: 0.1 * float64(1+rng.Intn(9))},    // tenths: not dyadic, fails
		}}
	}
	s := quantSearcher(t, objs, f)
	tab := s.core
	l := &tab.limbs
	// Channel layout: fS(dyadic)=0..2, fS(decimal)=3..5, fC=6.
	if l.Scale[0] == 0 || l.Lo[0] >= 0 {
		t.Errorf("dyadic sum channel should be one limb (scale %g, lo %d)", l.Scale[0], l.Lo[0])
	}
	if l.Scale[3] == 0 || l.Lo[3] < 0 {
		t.Errorf("decimal sum channel should be two limbs (scale %g, lo %d)", l.Scale[3], l.Lo[3])
	}
	if l.Scale[6] != 1 || l.Lo[6] >= 0 {
		t.Error("count channel should be one limb of scale 1")
	}
	if l.Scale[0] != 4 || l.Inv[0] != 0.25 {
		t.Errorf("dyadic scale = %g/%g, want 4/0.25", l.Scale[0], l.Inv[0])
	}
	// The split is error-free: for every contribution on a two-limb
	// channel, the rewritten hi part plus its lo part must equal the
	// original contribution value bit-for-bit.
	var orig []agg.Contrib
	order := newGeometry(&attr.Dataset{Objects: objs}).order // the one-shot pyramid's master
	for id := int32(0); int(id) < s.Objects(); id++ {
		orig = f.AppendContribs(&objs[order[id]], orig[:0])
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
				continue // lo limbs are checked with their channel
			}
			want := orig[oi]
			oi++
			if sh := l.Lo[cbs[k].Ch]; sh >= 0 {
				if got := cbs[k].V + shadow(sh); math.Float64bits(got) != math.Float64bits(want.V) {
					t.Fatalf("rect %d ch %d: hi+lo = %v, original = %v", id, cbs[k].Ch, got, want.V)
				}
			} else if math.Float64bits(cbs[k].V) != math.Float64bits(want.V) {
				t.Fatalf("rect %d ch %d: value changed: %v != %v", id, cbs[k].Ch, cbs[k].V, want.V)
			}
		}
	}
}

// TestCertificateDenormalAndHeadroom: channels whose values span more
// than one limb's headroom take two, on grids as fine as the normal
// range allows, and spreads beyond two limbs a chain of three; a
// searcher over denormals, NaN or Inf, which no grid holds, is refused.
func TestCertificateDenormalAndHeadroom(t *testing.T) {
	schema, err := attr.NewSchema(attr.Attribute{Name: "v", Kind: attr.Numeric})
	if err != nil {
		t.Fatal(err)
	}
	f, err := agg.New(schema, agg.Spec{Kind: agg.Sum, Attr: "v"})
	if err != nil {
		t.Fatal(err)
	}
	objects := func(vals []float64) []attr.Object {
		objs := make([]attr.Object, len(vals))
		for i, v := range vals {
			x := float64(i)
			objs[i] = attr.Object{Loc: geom.Point{X: x, Y: x}, Values: []attr.Value{{Num: v}}}
		}
		return objs
	}
	build := func(vals []float64) *agg.Limbs { return &quantSearcher(t, objects(vals), f).core.limbs }
	// A tail finer than 2^-1022 under a large head, denormals, NaN, Inf.
	for _, v := range []float64{math.Ldexp(1, -1060), 5e-324, math.NaN(), math.Inf(1)} {
		ds := &attr.Dataset{Objects: objects([]float64{16, v})}
		if _, err := NewShapeSearcher(t, ds, 1, 1, asp.Query{F: f, Target: []float64{0}}, Options{}); err == nil {
			t.Errorf("a channel holding %g certified", v)
		}
	}
	// A tiny dyadic value forces a fine grid; a large one then blows the
	// one-limb headroom — but two limbs split the spread across their hi
	// and lo planes and serve the channel exactly.
	for _, tiny := range []float64{math.Ldexp(1, -50), math.Ldexp(1, -100), math.Ldexp(1, -1000)} {
		if l := build([]float64{tiny, 16}); l.Lo[0] < 0 || chained(l) {
			t.Errorf("a %g beside 16 should take two limbs", tiny)
		}
	}
	if l := build([]float64{math.Ldexp(1, -50), math.Ldexp(1, -49)}); l.Scale[0] == 0 {
		t.Error("small dyadic values within headroom should pass")
	} else if l.Lo[0] >= 0 {
		t.Error("within-headroom dyadic values must take one limb, not two")
	}
	// Full-mantissa reals down to POISyn's smallest ratings: the lo grid
	// lies far below 2^-62, the bound the grids used to stop at.
	if l := build([]float64{5.000000000000001e-05, 7.3, 0.1, 9.999999999999998}); l.Lo[0] < 0 || l.Scale[l.Lo[0]] <= math.Ldexp(1, 62) {
		t.Errorf("full-mantissa reals should take two limbs with a lo grid finer than 2^-62 (lo %d, scales %v)", l.Lo[0], l.Scale)
	}
	// Full-mantissa reals spread over 1e-12…1e12: a chain of three.
	rng := rand.New(rand.NewSource(9))
	spread := make([]float64, 60)
	for i := range spread {
		spread[i] = spreadValue(rng)
	}
	if l := build(spread); !chained(l) {
		t.Errorf("spread reals should take a chain of three limbs (scales %v, lo %v)", l.Scale, l.Lo)
	}
}

// quantObjects builds randomized objects over a two-numeric-attribute
// schema with dyadic values (rating quarters in [0,10], visits halves in
// [1,500]): POISyn's values snapped to dyadic grids; half of them lie on
// a lattice of step 5.
func quantObjects(rng *rand.Rand, n int) []attr.Object {
	objs := make([]attr.Object, n)
	for i := range objs {
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
	}
	return objs
}

// realSchemaF2 compiles the F2-shaped composite (fS + fA) against the
// two-numeric-attribute schema used by quantObjects. Its fA component
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
// every certificate has no path of its own any more — denormal tails on
// both signs fit no exact limb, so the dataset is refused at validation
// and a searcher over it is refused too, at any extent, without
// reordering the caller's objects.
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
	locs := make([]geom.Point, 60)
	for i := range objs {
		x, y := rng.Float64()*10, rng.Float64()*10
		v := rng.NormFloat64()
		switch i % 10 {
		case 0:
			v = 5e-324 // denormal-adjacent
		case 5:
			v = -5e-324
		}
		objs[i] = attr.Object{Loc: geom.Point{X: x, Y: y}, Values: []attr.Value{{Num: v}}}
		locs[i] = objs[i].Loc
	}
	ds := &attr.Dataset{Schema: schema, Objects: objs}
	if err := ds.Validate(); !errors.Is(err, attr.ErrInvalid) {
		t.Fatalf("a dataset of denormals validated: %v", err)
	}
	q := asp.Query{F: f, Target: make([]float64, f.Dims())}
	if s, err := NewShapeSearcher(t, ds, 0, 0, q, Options{}); err == nil {
		t.Fatalf("unquantizable composite certified: %+v", s.core.limbs.Scale)
	}
	for i := range objs {
		if objs[i].Loc != locs[i] {
			t.Fatal("a refused searcher reordered the caller's objects")
		}
	}
	if _, err := NewSearcher(ds, 1, 1, q, Options{}); err == nil {
		t.Fatal("a region searcher over unquantizable objects was built")
	}
}

// TestSearchEquivalenceRealValued runs whole searches over the
// real-valued min/max composite: a search is a pure function of its
// input, so a repeated run answers bit for bit alike — point and
// representation included, with the first run's scratch recycled — and
// the distance is the sweep baseline's, bit for bit.
func TestSearchEquivalenceRealValued(t *testing.T) {
	f := realSchemaF2(t)
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 6; trial++ {
		ds := &attr.Dataset{Objects: quantObjects(rng, 400+rng.Intn(400))}
		target := make([]float64, f.Dims())
		target[0] = 5000
		target[1] = 10
		q := asp.Query{F: f, Target: target}

		solve := func() asp.Result {
			s, err := NewShapeSearcher(t, ds, 9, 8, q, Options{})
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
		rects, err := asp.Reduce(ds, 9, 8, asp.AnchorTR)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := sweep.New(rects, q)
		if err != nil {
			t.Fatal(err)
		}
		if base := sw.Solve(); math.Float64bits(base.Dist) != math.Float64bits(want.Dist) {
			t.Fatalf("trial %d: distance %v, sweep baseline %v", trial, want.Dist, base.Dist)
		}
	}
}
