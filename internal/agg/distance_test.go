package agg_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"asrs/internal/agg"
)

func TestDistanceL1(t *testing.T) {
	u := []float64{1, 2, 3}
	v := []float64{2, 0, 3}
	if d := agg.Distance(agg.L1, u, v, nil); d != 3 {
		t.Fatalf("L1 = %g, want 3", d)
	}
	w := []float64{0.5, 2, 10}
	if d := agg.Distance(agg.L1, u, v, w); d != 0.5+4 {
		t.Fatalf("weighted L1 = %g, want 4.5", d)
	}
}

func TestDistanceL2(t *testing.T) {
	u := []float64{0, 0}
	v := []float64{3, 4}
	if d := agg.Distance(agg.L2, u, v, nil); math.Abs(d-5) > 1e-12 {
		t.Fatalf("L2 = %g, want 5", d)
	}
}

func TestDistancePanics(t *testing.T) {
	assertPanics(t, "dim mismatch", func() { agg.Distance(agg.L1, []float64{1}, []float64{1, 2}, nil) })
	assertPanics(t, "weight mismatch", func() { agg.Distance(agg.L1, []float64{1}, []float64{2}, []float64{1, 2}) })
}

func assertPanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

// TestDistanceMetricProperties checks symmetry, identity and the triangle
// inequality on random vectors for both norms.
func TestDistanceMetricProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, norm := range []agg.Norm{agg.L1, agg.L2} {
		for trial := 0; trial < 200; trial++ {
			n := 1 + rng.Intn(6)
			u, v, x, w := randVec(rng, n), randVec(rng, n), randVec(rng, n), randPosVec(rng, n)
			duv := agg.Distance(norm, u, v, w)
			dvu := agg.Distance(norm, v, u, w)
			if math.Abs(duv-dvu) > 1e-9 {
				t.Fatalf("%v: not symmetric: %g vs %g", norm, duv, dvu)
			}
			if d := agg.Distance(norm, u, u, w); d != 0 {
				t.Fatalf("%v: dist(u,u) = %g", norm, d)
			}
			dux := agg.Distance(norm, u, x, w)
			dxv := agg.Distance(norm, x, v, w)
			if duv > dux+dxv+1e-9 {
				t.Fatalf("%v: triangle violated: %g > %g + %g", norm, duv, dux, dxv)
			}
		}
	}
}

// TestLowerBoundIsLowerBound: for any representation v within [lo, hi],
// LowerBound(q, lo, hi) ≤ Distance(q, v). Uses testing/quick over random
// boxes and contained points.
func TestLowerBoundIsLowerBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		lo, hi := make([]float64, n), make([]float64, n)
		v, q := make([]float64, n), make([]float64, n)
		w := randPosVec(rng, n)
		for i := 0; i < n; i++ {
			a, b := rng.NormFloat64()*10, rng.NormFloat64()*10
			if a > b {
				a, b = b, a
			}
			lo[i], hi[i] = a, b
			v[i] = a + rng.Float64()*(b-a)
			q[i] = rng.NormFloat64() * 10
		}
		for _, norm := range []agg.Norm{agg.L1, agg.L2} {
			lb := agg.LowerBound(norm, q, lo, hi, w)
			d := agg.Distance(norm, q, v, w)
			if lb > d+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestLowerBoundTightAtCorners: when the box collapses to a point, the
// lower bound equals the distance.
func TestLowerBoundTightAtCorners(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(5)
		v, q, w := randVec(rng, n), randVec(rng, n), randPosVec(rng, n)
		for _, norm := range []agg.Norm{agg.L1, agg.L2} {
			lb := agg.LowerBound(norm, q, v, v, w)
			d := agg.Distance(norm, q, v, w)
			if math.Abs(lb-d) > 1e-9 {
				t.Fatalf("%v: degenerate box lb %g != dist %g", norm, lb, d)
			}
		}
	}
}

func TestUnitWeights(t *testing.T) {
	w := agg.UnitWeights(4)
	for _, v := range w {
		if v != 1 {
			t.Fatalf("UnitWeights = %v", w)
		}
	}
}

func TestNormStrings(t *testing.T) {
	if agg.L1.String() != "L1" || agg.L2.String() != "L2" {
		t.Fatal("norm String()")
	}
	if agg.Norm(9).String() == "" {
		t.Fatal("unknown norm String() empty")
	}
	if agg.Distribution.String() != "fD" || agg.Average.String() != "fA" || agg.Sum.String() != "fS" {
		t.Fatal("kind String()")
	}
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64() * 10
	}
	return v
}

func randPosVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()*2 + 0.01
	}
	return v
}

// TestDistanceUnderMatchesDistance pins the fast path's contract on
// random vectors: ok must equal Distance(...) < bound for every bound,
// and when ok the returned value must be bit-identical to Distance
// (same accumulation order, no shortcut taken on the winning path).
func TestDistanceUnderMatchesDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(12)
		u := make([]float64, n)
		v := make([]float64, n)
		var w []float64
		for i := range u {
			u[i] = rng.NormFloat64() * 10
			v[i] = rng.NormFloat64() * 10
		}
		switch trial % 3 {
		case 1:
			w = make([]float64, n)
			for i := range w {
				w[i] = rng.Float64() * 3
			}
		case 2:
			// Negative weights break L1 monotonicity; DistanceUnder must
			// detect them and still answer exactly.
			w = make([]float64, n)
			for i := range w {
				w[i] = rng.NormFloat64()
			}
		}
		for _, norm := range []agg.Norm{agg.L1, agg.L2} {
			d := agg.Distance(norm, u, v, w)
			bounds := []float64{
				d, d * 0.5, d * 2, d + 1, d - 1, 0, -1, 1e-160,
				math.Inf(1), math.Inf(-1), math.NaN(),
			}
			for _, bound := range bounds {
				got, ok := agg.DistanceUnder(norm, u, v, w, bound)
				if want := d < bound; ok != want {
					t.Fatalf("%v DistanceUnder(bound=%v) ok=%v, want %v (d=%v)", norm, bound, ok, want, d)
				}
				if ok && math.Float64bits(got) != math.Float64bits(d) {
					t.Fatalf("%v DistanceUnder(bound=%v) = %v, want bit-identical %v", norm, bound, got, d)
				}
				if !ok && !math.IsNaN(got) && got > d {
					t.Fatalf("%v DistanceUnder(bound=%v) early value %v exceeds true distance %v", norm, bound, got, d)
				}
			}
		}
	}
	// A zero distance under 1e-170: the bound's square underflows to 0, so it
	// must not stop the sum.
	if d, ok := agg.DistanceUnder(agg.L2, []float64{1}, []float64{1}, nil, 1e-170); !ok || d != 0 {
		t.Fatalf("DistanceUnder at a zero distance under 1e-170 = %v, %v; want 0, true", d, ok)
	}
}
