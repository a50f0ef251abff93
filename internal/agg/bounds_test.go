package agg_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"asrs/internal/agg"
	"asrs/internal/attr"
)

func TestIntegerDims(t *testing.T) {
	s := attr.MustSchema(
		attr.Attribute{Name: "c", Kind: attr.Categorical, Domain: []string{"x", "y"}},
		attr.Attribute{Name: "v", Kind: attr.Numeric},
	)
	f := agg.MustNew(s,
		agg.Spec{Kind: agg.Distribution, Attr: "c"},
		agg.Spec{Kind: agg.Average, Attr: "v"},
		agg.Spec{Kind: agg.Sum, Attr: "v"},
	)
	got := f.IntegerDims()
	want := []bool{true, true, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IntegerDims = %v, want %v", got, want)
		}
	}
}

// TestLowerBoundIntSound: for integer dims, the integer-aware bound is
// still a lower bound over integer-valued representations in the box, and
// it is at least as tight as the continuous bound.
func TestLowerBoundIntSound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		lo, hi := make([]float64, n), make([]float64, n)
		v, q, w := make([]float64, n), make([]float64, n), make([]float64, n)
		isInt := make([]bool, n)
		for i := 0; i < n; i++ {
			isInt[i] = rng.Intn(2) == 0
			if isInt[i] {
				a := float64(rng.Intn(10))
				b := a + float64(rng.Intn(10))
				lo[i], hi[i] = a, b
				v[i] = a + float64(rng.Intn(int(b-a)+1))
			} else {
				a, b := rng.NormFloat64()*5, rng.NormFloat64()*5
				if a > b {
					a, b = b, a
				}
				lo[i], hi[i] = a, b
				v[i] = a + rng.Float64()*(b-a)
			}
			q[i] = rng.NormFloat64() * 8
			w[i] = 0.1 + rng.Float64()
		}
		for _, norm := range []agg.Norm{agg.L1, agg.L2} {
			lbInt := agg.LowerBoundInt(norm, q, lo, hi, w, isInt)
			lbCont := agg.LowerBound(norm, q, lo, hi, w)
			d := agg.Distance(norm, q, v, w)
			if lbInt > d+1e-9 { // soundness
				return false
			}
			if lbInt < lbCont-1e-9 { // dominance
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestLowerBoundIntNilDegradesToContinuous(t *testing.T) {
	q := []float64{1.5}
	lo := []float64{1}
	hi := []float64{2}
	if agg.LowerBoundInt(agg.L1, q, lo, hi, nil, nil) != 0 {
		t.Fatal("nil isInt should behave like the continuous bound")
	}
}

func TestLowerBoundIntSnapsToIntegers(t *testing.T) {
	q := []float64{1.4}
	lo := []float64{0}
	hi := []float64{3}
	isInt := []bool{true}
	got := agg.LowerBoundInt(agg.L1, q, lo, hi, nil, isInt)
	if math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("integer gap = %g, want 0.4 (snap to 1)", got)
	}
	// Query outside the box: plain interval distance.
	q[0] = 5
	if got := agg.LowerBoundInt(agg.L1, q, lo, hi, nil, isInt); got != 2 {
		t.Fatalf("outside box = %g, want 2", got)
	}
	q[0] = -2
	if got := agg.LowerBoundInt(agg.L1, q, lo, hi, nil, isInt); got != 2 {
		t.Fatalf("below box = %g, want 2", got)
	}
	// Degenerate integer box.
	if got := agg.LowerBoundInt(agg.L1, []float64{2.25}, []float64{2}, []float64{2}, nil, isInt); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("degenerate box = %g, want 0.25", got)
	}
}

func TestInfMM(t *testing.T) {
	s := attr.MustSchema(attr.Attribute{Name: "v", Kind: attr.Numeric})
	f := agg.MustNew(s,
		agg.Spec{Kind: agg.Average, Attr: "v"},
		agg.Spec{Kind: agg.Average, Attr: "v"},
	)
	if f.MinMaxSlots() != 2 {
		t.Fatalf("slots = %d", f.MinMaxSlots())
	}
	mn, mx := f.InfMM()
	for i := range mn {
		if !math.IsInf(mn[i], 1) || !math.IsInf(mx[i], -1) {
			t.Fatalf("InfMM not identities: %v %v", mn, mx)
		}
	}
}

// TestAverageBoundsEmptyFull: with an empty full set, the bound must
// include 0 (the empty selection) alongside the partial range.
func TestAverageBoundsEmptyFull(t *testing.T) {
	s := attr.MustSchema(attr.Attribute{Name: "v", Kind: attr.Numeric})
	f := agg.MustNew(s, agg.Spec{Kind: agg.Average, Attr: "v"})
	full := make([]float64, f.Channels())
	partial := make([]float64, f.Channels())
	// One partial object with value 7.
	o := attr.Object{Values: []attr.Value{attr.NumValue(7)}}
	for _, cb := range f.AppendContribs(&o, nil) {
		partial[cb.Ch] += cb.V
	}
	mmMin, mmMax := f.InfMM()
	for _, m := range f.AppendMM(&o, nil) {
		mmMin[m.Slot] = m.V
		mmMax[m.Slot] = m.V
	}
	lo := make([]float64, 1)
	hi := make([]float64, 1)
	f.FinalizeBounds(full, partial, mmMin, mmMax, lo, hi)
	if lo[0] > 0 || hi[0] < 7 {
		t.Fatalf("bounds [%g, %g] must include both 0 (exclude) and 7 (include)", lo[0], hi[0])
	}
}

// TestComponentsAndChannels sanity-checks the layout accessors.
func TestComponentsAndChannels(t *testing.T) {
	s := attr.MustSchema(
		attr.Attribute{Name: "c", Kind: attr.Categorical, Domain: []string{"x", "y", "z"}},
		attr.Attribute{Name: "v", Kind: attr.Numeric},
	)
	f := agg.MustNew(s,
		agg.Spec{Kind: agg.Distribution, Attr: "c"},
		agg.Spec{Kind: agg.Average, Attr: "v"},
		agg.Spec{Kind: agg.Sum, Attr: "v"},
	)
	if f.Components() != 3 {
		t.Fatalf("components = %d", f.Components())
	}
	if f.Dims() != 3+1+1 {
		t.Fatalf("dims = %d", f.Dims())
	}
	if f.Channels() != 3+2+3 {
		t.Fatalf("channels = %d", f.Channels())
	}
	if f.Schema() != s {
		t.Fatal("schema accessor")
	}
}

// TestLowerBoundIntUnderMatchesLowerBoundInt pins the early-exit bound's
// contract as TestDistanceUnderMatchesDistance pins DistanceUnder's: on
// random boxes, with integer dimensions on and off and weights absent,
// positive or of either sign, ok must equal LowerBoundInt(...) < bound
// for every bound, and a kept value must be bit-identical to
// LowerBoundInt.
func TestLowerBoundIntUnderMatchesLowerBoundInt(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 600; trial++ {
		n := 1 + rng.Intn(12)
		q, lo, hi := make([]float64, n), make([]float64, n), make([]float64, n)
		var isInt []bool
		if trial%2 == 1 {
			isInt = make([]bool, n)
		}
		for i := range q {
			q[i] = rng.NormFloat64() * 10
			a, b := rng.NormFloat64()*10, rng.NormFloat64()*10
			if isInt != nil && rng.Intn(2) == 0 {
				isInt[i] = true
				a, b = math.Round(a), math.Round(b)
			}
			lo[i], hi[i] = min(a, b), max(a, b)
		}
		var w []float64
		switch trial / 2 % 3 {
		case 1:
			w = make([]float64, n)
			for i := range w {
				w[i] = rng.Float64() * 3
			}
		case 2:
			// Negative weights break L1 monotonicity: the shortcut must
			// turn itself off and still answer exactly.
			w = make([]float64, n)
			for i := range w {
				w[i] = rng.NormFloat64()
			}
		}
		for _, norm := range []agg.Norm{agg.L1, agg.L2} {
			lb := agg.LowerBoundInt(norm, q, lo, hi, w, isInt)
			bounds := []float64{
				lb, math.Nextafter(lb, math.Inf(1)), math.Nextafter(lb, math.Inf(-1)),
				lb * 0.5, lb * 2, lb + 1, lb - 1, 0, -1, 1e-160,
				math.Inf(1), math.Inf(-1), math.NaN(),
			}
			for _, bound := range bounds {
				got, ok := agg.LowerBoundIntUnder(norm, q, lo, hi, w, isInt, bound)
				if want := lb < bound; ok != want {
					t.Fatalf("trial %d %v LowerBoundIntUnder(bound=%v) ok=%v, want %v (lb=%v)", trial, norm, bound, ok, want, lb)
				}
				if ok && math.Float64bits(got) != math.Float64bits(lb) {
					t.Fatalf("trial %d %v LowerBoundIntUnder(bound=%v) = %v, want bit-identical %v", trial, norm, bound, got, lb)
				}
				if !ok && !math.IsNaN(got) && got > lb {
					t.Fatalf("trial %d %v LowerBoundIntUnder(bound=%v) early value %v exceeds the bound %v", trial, norm, bound, got, lb)
				}
			}
		}
	}
	// A zero bound under 1e-170: the bound's square underflows to 0, so
	// it must not stop the sum.
	got, ok := agg.LowerBoundIntUnder(agg.L2, []float64{0}, []float64{0}, []float64{0}, nil, nil, 1e-170)
	if !ok || got != 0 {
		t.Fatalf("LowerBoundIntUnder at a zero bound under 1e-170 = %v, %v; want 0, true", got, ok)
	}
}
