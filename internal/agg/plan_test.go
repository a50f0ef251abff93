package agg_test

import (
	"math"
	"math/rand"
	"testing"

	"asrs/internal/agg"
	"asrs/internal/attr"
)

// TestBoundPlanMatchesOracle holds the compiled bound to the pair it
// replaces: for random composites of every kind, BoundPlan.Under must
// return FinalizeBounds + LowerBoundIntUnder's value and ok bit for bit.
// The vectors are drawn independently of each other, so they include
// what a search rarely forms but the arithmetic must still agree on: ±0
// channels, fA components with an empty full selection (count 0) and with
// no partial object but finite min/max slots, untouched ±Inf slot
// identities beside partial objects, targets on integers and on x.5,
// negative and zero weights (no early stop under L1), both norms, and
// thresholds below, at and above the bound, including 0 and ±Inf.
func TestBoundPlanMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	kinds := []agg.Kind{agg.Distribution, agg.Count, agg.Sum, agg.Average}
	var plan agg.BoundPlan // one plan, recompiled every trial, as the searches reuse theirs
	checked, stopped := 0, 0
	for trial := 0; trial < 4000; trial++ {
		var attrs []attr.Attribute
		var specs []agg.Spec
		var widths []int
		for k, n := 0, 1+rng.Intn(4); k < n; k++ {
			kind := kinds[rng.Intn(len(kinds))]
			name := string(rune('a' + k))
			switch kind {
			case agg.Distribution:
				dom := []string{"x", "y", "z", "u", "v"}[:1+rng.Intn(5)]
				attrs = append(attrs, attr.Attribute{Name: name, Kind: attr.Categorical, Domain: dom})
				widths = append(widths, len(dom))
			case agg.Count:
				attrs = append(attrs, attr.Attribute{Name: name, Kind: attr.Numeric})
				widths = append(widths, 1)
			case agg.Sum:
				attrs = append(attrs, attr.Attribute{Name: name, Kind: attr.Numeric})
				widths = append(widths, 3)
			case agg.Average:
				attrs = append(attrs, attr.Attribute{Name: name, Kind: attr.Numeric})
				widths = append(widths, 2)
			}
			specs = append(specs, agg.Spec{Kind: kind, Attr: name})
		}
		f := agg.MustNew(attr.MustSchema(attrs...), specs...)
		chans, dims := f.Channels(), f.Dims()
		full, part := make([]float64, chans), make([]float64, chans)
		for i := range full {
			full[i], part[i] = drawChannel(rng), drawChannel(rng)
		}
		// The count-like channels (fD, fC, fA's count) hold integers, and
		// fS's positive and negative channels their signs; the sum
		// channels keep any value.
		drawLayout(rng, specs, widths, full, part)
		mmMin, mmMax := f.InfMM()
		for s := range mmMin {
			if rng.Intn(3) > 0 {
				a, b := drawReal(rng), drawReal(rng)
				mmMin[s], mmMax[s] = min(a, b), max(a, b)
			}
		}
		q := make([]float64, dims)
		for i := range q {
			switch rng.Intn(4) {
			case 0:
				q[i] = float64(rng.Intn(12))
			case 1:
				q[i] = float64(rng.Intn(12)) + 0.5
			case 2:
				q[i] = -float64(rng.Intn(6)) - 0.5
			default:
				q[i] = drawReal(rng)
			}
		}
		var w []float64
		if rng.Intn(4) > 0 {
			w = make([]float64, dims)
			for i := range w {
				switch rng.Intn(8) {
				case 0:
					w[i] = -0.1 - rng.Float64()
				case 1:
					w[i] = 0
				default:
					w[i] = 0.1 + rng.Float64()*2
				}
			}
		}
		norm := agg.Norm(rng.Intn(2))
		isInt := f.IntegerDims()
		lo, hi := make([]float64, dims), make([]float64, dims)
		f.FinalizeBounds(full, part, mmMin, mmMax, lo, hi)
		whole := agg.LowerBoundInt(norm, q, lo, hi, w, isInt)

		plan.Compile(f, norm, q, w)
		if got := plan.Bound(full, part, mmMin, mmMax); math.Float64bits(got) != math.Float64bits(whole) {
			t.Fatalf("trial %d %v: Bound = %v, oracle %v (lo %v hi %v q %v w %v)", trial, norm, got, whole, lo, hi, q, w)
		}
		bounds := []float64{whole, math.Nextafter(whole, math.Inf(-1)), math.Nextafter(whole, math.Inf(1)),
			whole / 2, whole * 2, whole / 8, 0, math.Inf(1), math.Inf(-1), drawReal(rng)}
		for _, bound := range bounds {
			want, wantOK := agg.LowerBoundIntUnder(norm, q, lo, hi, w, isInt, bound)
			got, ok := plan.Under(full, part, mmMin, mmMax, bound)
			if ok != wantOK || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d %v bound %v: Under = %v, %v; oracle %v, %v (lo %v hi %v q %v w %v)",
					trial, norm, bound, got, ok, want, wantOK, lo, hi, q, w)
			}
			checked++
			if !ok && math.Float64bits(got) != math.Float64bits(whole) {
				stopped++
			}
		}
	}
	// The early stop must have cut sums short, or the comparison above
	// says nothing about it.
	if stopped == 0 {
		t.Fatalf("no threshold stopped a sum early in %d checks", checked)
	}
}

// drawChannel draws a channel value: mostly small integers, with ±0.
func drawChannel(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	default:
		return float64(rng.Intn(9))
	}
}

// drawReal draws a real value of either sign, now and then a signed zero.
func drawReal(rng *rand.Rand) float64 {
	switch rng.Intn(10) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	default:
		return rng.NormFloat64() * 6
	}
}

// drawLayout redraws the channels whose values have a sign or a grid by
// construction: fS's positive channel holds non-negative and its negative
// channel non-positive sums, fA's sum channel any real beside an integer
// count (0 for an empty selection). widths are the components' channel
// counts, in channel order.
func drawLayout(rng *rand.Rand, specs []agg.Spec, widths []int, full, part []float64) {
	ch := 0
	for i, s := range specs {
		switch s.Kind {
		case agg.Sum:
			for _, v := range [][]float64{full, part} {
				v[ch] = drawReal(rng)
				v[ch+1] = math.Abs(drawReal(rng))
				v[ch+2] = -math.Abs(drawReal(rng))
				if rng.Intn(5) == 0 {
					v[ch+2] = math.Copysign(0, -1)
				}
			}
		case agg.Average:
			for _, v := range [][]float64{full, part} {
				v[ch+1] = float64(rng.Intn(3))
				v[ch] = drawReal(rng)
				if v[ch+1] == 0 && rng.Intn(2) == 0 {
					v[ch] = 0
				}
			}
		}
		ch += widths[i]
	}
}
