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

// boundComposite is every aggregator kind the strip bound forms a range
// for: fD over three categories, a count, fA over a rating (its min/max
// slot) and fS over signed visits (its negative channel).
func boundComposite(t *testing.T) *agg.Composite {
	t.Helper()
	schema, err := attr.NewSchema(
		attr.Attribute{Name: "cat", Kind: attr.Categorical, Domain: []string{"a", "b", "c"}},
		attr.Attribute{Name: "rating", Kind: attr.Numeric},
		attr.Attribute{Name: "visits", Kind: attr.Numeric},
	)
	if err != nil {
		t.Fatal(err)
	}
	f, err := agg.New(schema,
		agg.Spec{Kind: agg.Distribution, Attr: "cat"},
		agg.Spec{Kind: agg.Count},
		agg.Spec{Kind: agg.Average, Attr: "rating"},
		agg.Spec{Kind: agg.Sum, Attr: "visits"},
	)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// boundFixture draws rectangles of one size around space — a third on a
// coarse lattice — and a quarter of that many containing it strictly,
// which a caller may fold into a base vector. Ratings spread over
// [-40, 40] in quarter steps, so an Average's range is as wide as its
// slot's min and max; visits are signed half steps.
func boundFixture(rng *rand.Rand, space geom.Rect, n int) []asp.RectObject {
	var rects []asp.RectObject
	add := func(r geom.Rect) {
		o := &attr.Object{
			Loc: geom.Point{X: r.MaxX, Y: r.MaxY},
			Values: []attr.Value{
				{Cat: rng.Intn(3)},
				{Num: float64(rng.Intn(321)-160) * 0.25},
				{Num: float64(rng.Intn(401)-200) * 0.5},
			},
		}
		rects = append(rects, asp.RectObject{Rect: r, Obj: o})
	}
	w, h := 5+rng.Float64()*10, 4+rng.Float64()*10
	for i := 0; i < n; i++ {
		x := space.MinX + rng.Float64()*(space.Width()+w)
		y := space.MinY + rng.Float64()*(space.Height()+h)
		if rng.Intn(3) == 0 {
			x, y = space.MinX+float64(rng.Intn(12))*3, space.MinY+float64(rng.Intn(12))*3
		}
		add(geom.Rect{MinX: x - w, MinY: y - h, MaxX: x, MaxY: y})
	}
	out := func() float64 { return 0.5 + rng.Float64()*10 }
	for i := n / 4; i > 0; i-- {
		add(geom.Rect{MinX: space.MinX - out(), MinY: space.MinY - out(), MaxX: space.MaxX + out(), MaxY: space.MaxY + out()})
	}
	rng.Shuffle(len(rects), func(i, j int) { rects[i], rects[j] = rects[j], rects[i] })
	return rects
}

// expectSameBits fails unless two results have the same distance and
// point, bit for bit, and the same representation.
func expectSameBits(t *testing.T, label string, want, got asp.Result, wok, gok bool) {
	t.Helper()
	expectSame(t, label, want, got, wok, gok)
	for _, p := range [][2]float64{{want.Dist, got.Dist}, {want.Point.X, got.Point.X}, {want.Point.Y, got.Point.Y}} {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			t.Fatalf("%s: %v vs %v (distance %v@%v vs %v@%v)", label, p[0], p[1], want.Dist, want.Point, got.Dist, got.Point)
		}
	}
}

// TestStripBoundBitIdentical holds the bounded incremental sweep to the
// classic scan, which bounds nothing: distance and point bit for bit,
// on fD, count, fA and signed fS at once,
// on a base vector of the rectangles containing the space, uncapped,
// capped between the optimum and a worse candidate, and capped exactly at
// the optimum, where the tie must still score. The targets are a
// candidate's representation nudged, so most strips are out of reach and
// the bound prunes.
func TestStripBoundBitIdentical(t *testing.T) {
	f := boundComposite(t)
	spaces := []geom.Rect{
		{MinX: 0, MinY: 0, MaxX: 30, MaxY: 30},
		{MinX: 10, MinY: 20, MaxX: 22, MaxY: 50},
	}
	rng := rand.New(rand.NewSource(113))
	var pruned, cappedPruned int
	for trial := 0; trial < 60; trial++ {
		space := spaces[trial%len(spaces)]
		all := boundFixture(rng, space, incrMinRects+rng.Intn(150))
		limbs := limbsOver(t, f, all)
		var edged []asp.RectObject
		base := make([]float64, limbs.Eff())
		var cbuf []agg.Contrib
		for _, r := range all {
			if r.Rect.ContainsRectOpen(space) {
				for _, cb := range limbs.Split(f.AppendContribs(r.Obj, cbuf[:0]), 0) {
					base[cb.Ch] += cb.V
				}
				continue
			}
			edged = append(edged, r)
		}
		probe := func() geom.Point {
			return geom.Point{X: space.MinX + rng.Float64()*space.Width(), Y: space.MinY + rng.Float64()*space.Height()}
		}
		target := asp.PointRepresentation(all, f, probe())
		w := make([]float64, len(target))
		for d := range target {
			target[d] += float64(rng.Intn(3)-1) * 0.5
			w[d] = 0.1 + rng.Float64()
		}
		q := asp.Query{F: f, Target: target, W: w, Norm: agg.Norm(trial % 2)}

		classic, err := New(nil, q)
		if err != nil {
			t.Fatal(err)
		}
		bindObjects(classic, q, limbs, all, nil)
		opt, ok := classic.SolveWithin(space)
		if !ok {
			t.Fatal("classic sweep found nothing")
		}
		worst := opt.Dist
		for i := 0; i < 20; i++ {
			worst = math.Max(worst, q.Distance(asp.PointRepresentation(all, f, probe())))
		}
		caps := []float64{math.Inf(1), opt.Dist + (worst-opt.Dist)/2, opt.Dist}
		s, err := New(nil, q)
		if err != nil {
			t.Fatal(err)
		}
		s.setIncremental(true)
		bindObjects(s, q, limbs, edged, base)
		for ci, c := range caps {
			want, wok := classic.SolveWithinCapped(space, c)
			before := s.Stats.PrunedStrips
			got, gok := s.SolveWithinCapped(space, c)
			expectSameBits(t, fmt.Sprintf("trial %d cap %d", trial, ci), want, got, wok, gok)
			if ci > 0 {
				cappedPruned += s.Stats.PrunedStrips - before
			}
		}
		if s.Stats.FlatStrips == 0 {
			t.Fatalf("trial %d: the incremental sweep did not run", trial)
		}
		pruned += s.Stats.PrunedStrips
	}
	if pruned == 0 || cappedPruned == 0 {
		t.Fatalf("%d strips pruned, %d of them under a cap: the bound was not exercised", pruned, cappedPruned)
	}
}

// TestStripBoundPrunes: a strip out of reach is skipped, and only a
// rectangle spanning every interval of the space is in a strip's full
// set. Under a count whose target is 1, the bottom strip is covered twice
// (distance 1). In the strip above, a rectangle over the whole width
// covers the left interval alone, and one that misses only that interval
// doubles the right: the left interval scores 0 there, and a bound that
// took the second rectangle as full (lower end 2) would skip the strip.
// Rectangles stacked three deep above cover the rest at distance 2: every
// strip of theirs is skipped, and nothing ties with the optimum.
func TestStripBoundPrunes(t *testing.T) {
	schema, err := attr.NewSchema(attr.Attribute{Name: "v", Kind: attr.Numeric})
	if err != nil {
		t.Fatal(err)
	}
	f, err := agg.New(schema, agg.Spec{Kind: agg.Count})
	if err != nil {
		t.Fatal(err)
	}
	var rects []asp.RectObject
	add := func(minX, minY, maxX, maxY float64) {
		rects = append(rects, asp.RectObject{
			Rect: geom.Rect{MinX: minX, MinY: minY, MaxX: maxX, MaxY: maxY},
			Obj:  &attr.Object{Loc: geom.Point{X: maxX, Y: maxY}, Values: []attr.Value{{Num: 1}}},
		})
	}
	add(0, 0, 10, 1)
	add(0, 0, 10, 1)
	add(0, 1, 10, 2)
	add(3, 1, 10, 2)
	for y := 2.0; len(rects) < incrMinRects+4; y++ {
		for range 3 {
			add(0, y, 10, y+1)
		}
	}
	q := asp.Query{F: f, Target: []float64{1}}
	space := asp.Space(rects)
	s, err := New(rects, q)
	if err != nil {
		t.Fatal(err)
	}
	s.setIncremental(true)
	got, ok := s.SolveWithin(space)
	if want := (geom.Point{X: 1.5, Y: 1.5}); !ok || got.Dist != 0 || got.Point != want {
		t.Fatalf("%v@%v, want 0@%v", got.Dist, got.Point, want)
	}
	if st := s.Stats; st.PrunedStrips != st.Strips-2 {
		t.Fatalf("%d of %d strips pruned, want all but the lowest two", st.PrunedStrips, st.Strips)
	}
}
