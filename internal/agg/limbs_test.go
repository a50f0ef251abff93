package agg

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// TestFracBits pins the fraction-bit computation at the heart of the
// limb certificate.
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
		{math.Ldexp(1, -100), 100},
		{math.Ldexp(1, -1022), 1022},
	}
	for _, c := range cases {
		if got := fracBits(c.v); got != c.want {
			t.Errorf("fracBits(%g) = %d, want %d", c.v, got, c.want)
		}
	}
	// 0.1 is not 1/10 but the nearest double, m·2^-55 — exactly
	// representable, so a *single* such value fits one limb; it is the
	// Σ|v|·2^55 headroom bound that sends decimal-grid channels to two
	// limbs in practice.
	if got := fracBits(0.1); got != 55 {
		t.Errorf("fracBits(0.1) = %d, want 55", got)
	}
	// Unquantizable inputs must exceed every admissible grid.
	for _, v := range []float64{math.NaN(), math.Inf(1), 5e-324, 1e-308, math.Ldexp(1, -1023)} {
		if got := fracBits(v); got <= maxLimbShift {
			t.Errorf("fracBits(%g) = %d, want > %d", v, got, maxLimbShift)
		}
	}
}

// roundedSum is the correctly rounded exact sum of vs.
func roundedSum(vs []float64) float64 {
	sum := new(big.Float).SetPrec(4096)
	for _, v := range vs {
		sum.Add(sum, new(big.Float).SetFloat64(v))
	}
	f, _ := sum.Float64()
	return f
}

// TestExactSumIsRoundedExactSum: over values that certify — integers,
// dyadic steps, decimal steps, full-mantissa reals down to 5e-5 — every
// channel's ExactSum is the correctly rounded exact sum of its values,
// in whatever order they come, and whether they are summed as float
// limbs or as int64 counts of each limb's grid (the incremental sweep's
// form). Full-mantissa reals spread over 1e-12…1e12 take a chain of three
// limbs or more: their sum is the same in every order and form, and
// within one ulp of the rounded exact sum.
func TestExactSumIsRoundedExactSum(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	draws := []func() float64{
		func() float64 { return float64(rng.Intn(2001) - 1000) },
		func() float64 { return float64(rng.Intn(41)) * 0.25 },
		func() float64 { return 0.1 * float64(rng.Intn(1000)) },
		func() float64 { return 1 + rng.Float64()*499 },
		func() float64 { return math.Max(5e-5, rng.Float64()*10) },
		func() float64 { return rng.NormFloat64() * 1e6 },
		func() float64 { return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(25)-12)) },
	}
	const chans, spread = 7, 6
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(5000)
		var cbs []Contrib
		vals := make([][]float64, chans)
		for i := 0; i < n; i++ {
			for ch, draw := range draws {
				v := draw()
				cbs = append(cbs, Contrib{Ch: ch, V: v})
				vals[ch] = append(vals[ch], v)
			}
		}
		var l Limbs
		if err := l.Certify(chans, cbs); err != nil {
			t.Fatalf("trial %d (n=%d): %v", trial, n, err)
		}
		if n >= 20 && limbsOf(&l, spread) < 3 {
			t.Fatalf("trial %d (n=%d): the spread channel takes %d limbs, want at least 3", trial, n, limbsOf(&l, spread))
		}
		got, err := ExactSum(chans, cbs)
		if err != nil {
			t.Fatal(err)
		}
		rng.Shuffle(len(cbs), func(i, j int) { cbs[i], cbs[j] = cbs[j], cbs[i] })
		shuffled, err := ExactSum(chans, cbs)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int64, l.Eff())
		for _, cb := range l.Split(append([]Contrib(nil), cbs...), 0) {
			counts[cb.Ch] += int64(cb.V * l.Scale[cb.Ch])
		}
		asInts := l.FoldCounts(make([]float64, chans), counts)
		for ch := range draws {
			want := roundedSum(vals[ch])
			for _, s := range [][]float64{shuffled, asInts} {
				if math.Float64bits(s[ch]) != math.Float64bits(got[ch]) {
					t.Fatalf("trial %d (n=%d) channel %d: sums %v %v %v differ", trial, n, ch, got[ch], shuffled[ch], asInts[ch])
				}
			}
			if limbsOf(&l, ch) > 2 {
				if got[ch] < math.Nextafter(want, math.Inf(-1)) || got[ch] > math.Nextafter(want, math.Inf(1)) {
					t.Fatalf("trial %d (n=%d) channel %d: %v, more than one ulp from the exact sum %v", trial, n, ch, got[ch], want)
				}
			} else if math.Float64bits(got[ch]) != math.Float64bits(want) {
				t.Fatalf("trial %d (n=%d) channel %d: %v, the rounded exact sum is %v", trial, n, ch, got[ch], want)
			}
		}
	}
	for _, v := range []float64{5e-324, math.NaN(), math.Inf(-1)} {
		if err := new(Limbs).Certify(1, []Contrib{{V: 3}, {V: v}}); err == nil {
			t.Errorf("%g certified", v)
		}
	}
}

// limbsOf returns the number of limbs channel ch is summed in.
func limbsOf(l *Limbs, ch int) int {
	n := 0
	for k := ch; k >= 0; k = l.next(ch, k) {
		n++
	}
	return n
}
