package sweep

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"asrs/internal/agg"
	"asrs/internal/asp"
	"asrs/internal/attr"
	"asrs/internal/geom"
)

// baseComposites are the limb layouts a base vector meets: integer
// channels, dyadic reals (one limb each), full-mantissa reals down to
// POISyn's smallest ratings (two limbs, the lo grid finer than 2^-62) and
// full-mantissa reals spread over 1e-12…1e12 (a chain of three). All sum
// exactly, take the incremental sweep and must come back bit for bit.
var baseComposites = []struct {
	name string
	num  func(rng *rand.Rand) (visits, rating float64)
}{
	{"integer", func(rng *rand.Rand) (float64, float64) {
		return float64(rng.Intn(9) - 4), float64(rng.Intn(6))
	}},
	{"certified", func(rng *rand.Rand) (float64, float64) {
		return float64(rng.Intn(999))*0.5 - 200, float64(rng.Intn(41)) * 0.25
	}},
	{"two-limb", func(rng *rand.Rand) (float64, float64) {
		return 1 + rng.Float64()*499, smallRating(rng)
	}},
	{"three-limb", func(rng *rand.Rand) (float64, float64) {
		return spreadValue(rng), rng.Float64() * 5
	}},
}

// spreadValue draws a full-mantissa real between 1e-12 and 1e12 in
// magnitude: a few hundred of them sum in a chain of three limbs.
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

// baseSpaces: an ordinary space, then a zero-width, a zero-height and a
// point space.
var baseSpaces = []geom.Rect{
	{MinX: 40, MinY: 35, MaxX: 62, MaxY: 55},
	{MinX: 50, MinY: 35, MaxX: 50, MaxY: 55},
	{MinX: 40, MinY: 45, MaxX: 62, MaxY: 45},
	{MinX: 50, MinY: 45, MaxX: 50, MaxY: 45},
}

// baseFixture draws rectangles around space in four kinds, shuffled: ones
// with an edge inside it, ones that contain it strictly, ones that would
// contain it but share an edge coordinate with it, and ones outside it.
func baseFixture(rng *rand.Rand, space geom.Rect, num func(*rand.Rand) (float64, float64), edged int) []asp.RectObject {
	var rects []asp.RectObject
	add := func(r geom.Rect) {
		visits, rating := num(rng)
		o := &attr.Object{
			Loc:    geom.Point{X: r.MaxX, Y: r.MaxY},
			Values: []attr.Value{{Num: visits}, {Num: rating}},
		}
		rects = append(rects, asp.RectObject{Rect: r, Obj: o})
	}
	for i := 0; i < edged; i++ {
		x, y := 30+rng.Float64()*45, 25+rng.Float64()*42
		if rng.Intn(3) == 0 {
			x, y = 30+float64(rng.Intn(15))*3, 25+float64(rng.Intn(14))*3
		}
		add(geom.Rect{MinX: x - 9, MinY: y - 8, MaxX: x, MaxY: y})
	}
	out := func() float64 { return 0.5 + rng.Float64()*20 }
	for i := 20 + rng.Intn(60); i > 0; i-- {
		add(geom.Rect{MinX: space.MinX - out(), MinY: space.MinY - out(), MaxX: space.MaxX + out(), MaxY: space.MaxY + out()})
	}
	for i := 0; i < 12; i++ {
		r := geom.Rect{MinX: space.MinX - out(), MinY: space.MinY - out(), MaxX: space.MaxX + out(), MaxY: space.MaxY + out()}
		switch i % 4 {
		case 0:
			r.MinX = space.MinX
		case 1:
			r.MaxX = space.MaxX
		case 2:
			r.MinY = space.MinY
		case 3:
			r.MaxY = space.MaxY
		}
		add(r)
	}
	for i := 0; i < 10; i++ {
		add(geom.Rect{MinX: space.MaxX + out(), MinY: space.MinY - out(), MaxX: space.MaxX + 30, MaxY: space.MaxY + out()})
	}
	rng.Shuffle(len(rects), func(i, j int) { rects[i], rects[j] = rects[j], rects[i] })
	return rects
}

// TestSolveWithinBaseMatchesUnfolded: sweeping only the rectangles with an
// edge inside the space, on the summed limb contributions of those that
// contain it strictly, is sweeping them all — point, distance and
// representation bit for bit, through the classic walk and the incremental sweep's flat pass, capped
// and uncapped, on degenerate spaces too. Rectangles sharing an edge
// coordinate with the space stay swept.
func TestSolveWithinBaseMatchesUnfolded(t *testing.T) {
	schema, err := attr.NewSchema(
		attr.Attribute{Name: "visits", Kind: attr.Numeric},
		attr.Attribute{Name: "rating", Kind: attr.Numeric},
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
	modes := []struct {
		name        string
		incremental bool
	}{{"classic", false}, {"incremental", true}}
	rng := rand.New(rand.NewSource(97))
	for _, comp := range baseComposites {
		for trial := 0; trial < 8; trial++ {
			space := baseSpaces[trial%len(baseSpaces)]
			// Under and over incrMinRects swept rectangles.
			all := baseFixture(rng, space, comp.num, []int{incrMinRects + 80, 30}[trial/len(baseSpaces)%2])
			q := asp.Query{F: f, Target: []float64{rng.Float64() * 400, rng.Float64() * 5, float64(20 + rng.Intn(80))}}

			// The limbs of the whole set serve both solvers, as a search's
			// serve all of its sweeps.
			var cbuf []agg.Contrib
			for _, r := range all {
				cbuf = f.AppendContribs(r.Obj, cbuf)
			}
			limbs := &agg.Limbs{}
			if err := limbs.Certify(f.Channels(), cbuf); err != nil {
				t.Fatal(err)
			}
			if comp.name == "two-limb" && slices.Max(limbs.Scale) <= math.Ldexp(1, 62) {
				t.Fatalf("%s: no lo grid finer than 2^-62: %v", comp.name, limbs.Scale)
			}
			if (comp.name == "three-limb") != chained(limbs) {
				t.Fatalf("%s: limbs %v, lo %v", comp.name, limbs.Scale, limbs.Lo)
			}
			var edged []asp.RectObject
			base := make([]float64, limbs.Eff())
			for _, r := range all {
				if r.Rect.ContainsRectOpen(space) {
					for _, cb := range limbs.Split(f.AppendContribs(r.Obj, cbuf[:0]), 0) {
						base[cb.Ch] += cb.V
					}
					continue
				}
				edged = append(edged, r)
			}
			if len(edged) == len(all) {
				t.Fatal("fixture has no containing rectangle")
			}

			for _, m := range modes {
				newSolver := func() *Solver {
					s, err := New(nil, q)
					if err != nil {
						t.Fatal(err)
					}
					s.setIncremental(m.incremental)
					return s
				}
				unfolded, folded := newSolver(), newSolver()
				bindObjects(unfolded, q, limbs, all, nil)
				bindObjects(folded, q, limbs, edged, base)
				label := comp.name + "/" + m.name
				want, wok := unfolded.SolveWithin(space)
				if !wok {
					t.Fatalf("%s: unfolded sweep found nothing", label)
				}
				unfolded.Stats = Stats{}
				for _, c := range []float64{math.Inf(1), want.Dist * 2, want.Dist, math.Nextafter(want.Dist, math.Inf(-1))} {
					want, wok := unfolded.SolveWithinCapped(space, c)
					got, gok := folded.SolveWithinCapped(space, c)
					expectSame(t, label, want, got, wok, gok)
				}
				if us, fs := unfolded.Stats, folded.Stats; us != fs {
					t.Fatalf("%s: the two sweeps walked different strips or intervals: %+v vs %+v", label, us, fs)
				}
				degenerate := space.MinX == space.MaxX || space.MinY == space.MaxY
				if m.incremental && !degenerate && len(edged) >= incrMinRects {
					if folded.Stats.FlatStrips == 0 {
						t.Fatalf("%s: the flat pass was not exercised: %+v", label, folded.Stats)
					}
				}
				// A rebind without a base drops it.
				bindObjects(folded, q, limbs, all, nil)
				got, gok := folded.SolveWithin(space)
				expectSame(t, label+"/rebound", want, got, wok, gok)
			}
		}
	}
}
