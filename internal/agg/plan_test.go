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

// TestScorePlanMatchesOracle holds the compiled score to the three passes
// it replaces — fold every channel (Limbs.Fold over a float limb vector,
// FoldCounts over int64 counts), FinalizeExact, DistanceUnder: the
// distance bits and the ok bit under every threshold, and the whole
// representation whenever ok. The limb layouts are Certify's over random
// objects: one-limb counts, two-limb decimal channels, chains of three
// limbs and more over reals spread across 24 decades, and the Sum parts
// no dimension reads. The candidates are random subsets of the objects,
// the empty one included, and components select objects by value, so
// Averages come with a count of 0; zero totals of the float vectors are
// drawn as ±0. Weights are nil or drawn with zeros and negatives (no
// early stop under L1), both norms, targets now and then a candidate's
// own representation, and thresholds from below the distance to above
// it, 0, ±Inf and ones too small to square (squaredStop).
func TestScorePlanMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	kinds := []agg.Kind{agg.Distribution, agg.Count, agg.Sum, agg.Average}
	var plan agg.ScorePlan // one plan, recompiled every trial, as the solvers reuse theirs
	var checked, stopped, negKept, emptyAvg, longChains, boundOnly int
	for trial := 0; trial < 1500; trial++ {
		var attrs []attr.Attribute
		var specs []agg.Spec
		styles := map[int]int{} // a numeric attribute's value style
		for k, n := 0, 1+rng.Intn(4); k < n; k++ {
			kind := kinds[rng.Intn(len(kinds))]
			name := string(rune('a' + k))
			spec := agg.Spec{Kind: kind, Attr: name}
			if kind == agg.Distribution {
				dom := []string{"x", "y", "z", "u", "v"}[:1+rng.Intn(5)]
				attrs = append(attrs, attr.Attribute{Name: name, Kind: attr.Categorical, Domain: dom})
			} else {
				attrs = append(attrs, attr.Attribute{Name: name, Kind: attr.Numeric})
				styles[k] = rng.Intn(4)
				if rng.Intn(3) == 0 {
					spec.Select = attr.SelectNumRange(k, -1, 1e300)
				}
			}
			specs = append(specs, spec)
		}
		f := agg.MustNew(attr.MustSchema(attrs...), specs...)
		chans, dims := f.Channels(), f.Dims()
		objs := make([]attr.Object, 1+rng.Intn(60))
		for i := range objs {
			objs[i].Values = make([]attr.Value, len(attrs))
			for k, a := range attrs {
				if a.Kind == attr.Categorical {
					objs[i].Values[k] = attr.CatValue(rng.Intn(a.DomainSize()))
				} else {
					objs[i].Values[k] = attr.NumValue(drawValue(rng, styles[k]))
				}
			}
		}
		var raw []agg.Contrib
		off := []int{0}
		for i := range objs {
			raw = f.AppendContribs(&objs[i], raw)
			off = append(off, len(raw))
		}
		var l agg.Limbs
		if err := l.Certify(chans, raw); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		eff := l.Eff()
		for ch := 0; ch < chans; ch++ {
			if agg.ChainLen(&l, ch) >= 3 {
				longChains++
			}
		}

		q := make([]float64, dims)
		for i := range q {
			q[i] = drawReal(rng)
		}
		var w []float64
		if rng.Intn(4) > 0 {
			w = make([]float64, dims)
			for i := range w {
				switch rng.Intn(6) {
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
		negative := false
		for _, wi := range w {
			negative = negative || wi < 0
		}

		// The target is sometimes a candidate's representation, so the
		// distances reach 0 and the thresholds around it.
		candidate := func() ([]float64, []int64) {
			v, cnt := make([]float64, eff), make([]int64, eff)
			for i := range objs {
				if rng.Intn(2) == 0 {
					continue
				}
				for _, cb := range l.Split(append([]agg.Contrib(nil), raw[off[i]:off[i+1]]...), 0) {
					v[cb.Ch] += cb.V
					cnt[cb.Ch] += int64(cb.V * l.Scale[cb.Ch])
				}
			}
			for k := range v {
				if v[k] == 0 && rng.Intn(2) == 0 {
					v[k] = math.Copysign(0, -1)
				}
			}
			return v, cnt
		}
		if rng.Intn(4) == 0 {
			v, _ := candidate()
			f.FinalizeExact(l.Fold(make([]float64, chans), v), q)
		}

		plan.Compile(f, &l, norm, q, w)
		// The columns are every limb a dimension reads: all but a Sum's
		// negative and positive parts.
		cols := eff
		for i, ch := 0, 0; i < len(specs); i++ {
			switch specs[i].Kind {
			case agg.Sum:
				parts := agg.ChainLen(&l, ch+1) + agg.ChainLen(&l, ch+2)
				cols -= parts
				boundOnly += parts
				ch += 3
			case agg.Average:
				ch += 2
			case agg.Distribution:
				ch += attrs[i].DomainSize()
			default:
				ch++
			}
		}
		colOf := plan.ColumnOf()
		ident := plan.Columns() == eff
		for k, c := range colOf {
			ident = ident && int(c) == k
		}
		if plan.Columns() != cols || len(colOf) != eff || plan.Identity() != ident {
			t.Fatalf("trial %d: %d columns over %d limbs (identity %v, map %v); want %d columns (identity %v)",
				trial, plan.Columns(), eff, plan.Identity(), colOf, cols, ident)
		}

		for sub := 0; sub < 6; sub++ {
			v, cnt := candidate()
			if sub == 0 {
				clear(v)
				clear(cnt)
			}
			tot := make([]int64, plan.Columns())
			for k, c := range colOf {
				if c >= 0 {
					tot[c] = cnt[k]
				}
			}
			want := make([]float64, dims)
			f.FinalizeExact(l.Fold(make([]float64, chans), v), want)
			wantCounts := make([]float64, dims)
			f.FinalizeExact(l.FoldCounts(make([]float64, chans), cnt), wantCounts)
			for i, dim := 0, 0; i < len(specs); i++ {
				if specs[i].Kind == agg.Average && math.Float64bits(want[dim]) == 0 {
					emptyAvg++
				}
				if dim++; specs[i].Kind == agg.Distribution {
					dim += attrs[i].DomainSize() - 1
				}
			}
			whole := agg.Distance(norm, want, q, w)
			rep := make([]float64, dims)
			if got := plan.Distance(v, rep); math.Float64bits(got) != math.Float64bits(whole) || !sameFloats(rep, want) {
				t.Fatalf("trial %d %v: Distance = %v rep %v; oracle %v rep %v (q %v w %v)", trial, norm, got, rep, whole, want, q, w)
			}
			bounds := []float64{whole, math.Nextafter(whole, math.Inf(-1)), math.Nextafter(whole, math.Inf(1)),
				whole / 2, whole * 2, whole / 8, 0, math.Inf(1), math.Inf(-1), 0x1p-500, 0x1p-501, 1e-300, drawReal(rng)}
			for _, bound := range bounds {
				for _, c := range []struct {
					name string
					want []float64
					got  func(rep []float64) (float64, bool)
				}{
					{"Under", want, func(rep []float64) (float64, bool) { return plan.Under(v, rep, bound) }},
					{"UnderCounts", wantCounts, func(rep []float64) (float64, bool) { return plan.UnderCounts(tot, rep, bound) }},
				} {
					wd, wok := agg.DistanceUnder(norm, c.want, q, w, bound)
					clear(rep)
					gd, gok := c.got(rep)
					if gok != wok || math.Float64bits(gd) != math.Float64bits(wd) || gok && !sameFloats(rep, c.want) {
						t.Fatalf("trial %d %v %s bound %v: %v, %v rep %v; oracle %v, %v rep %v (q %v w %v)",
							trial, norm, c.name, bound, gd, gok, rep, wd, wok, c.want, q, w)
					}
					checked++
					if !gok && math.Float64bits(gd) != math.Float64bits(agg.Distance(norm, c.want, q, w)) {
						stopped++
					}
					if negative && norm == agg.L1 && gok {
						negKept++
					}
				}
			}
		}
	}
	// Each case the plan must get right has to have come up, or the
	// comparisons above say nothing about it.
	for name, n := range map[string]int{"sums stopped early": stopped, "negative-weight L1 sums kept": negKept,
		"empty Averages": emptyAvg, "chains of three limbs or more": longChains, "bound-only limbs": boundOnly} {
		if n == 0 {
			t.Fatalf("no %s in %d checks", name, checked)
		}
	}
}

// drawValue draws a numeric value in one of four styles, each certifying
// to its own limb layout: integers (one limb), decimal steps (two),
// full-mantissa reals spread across 24 decades (three or more), and
// small integers mixed with ±0.
func drawValue(rng *rand.Rand, style int) float64 {
	switch style {
	case 0:
		return float64(rng.Intn(2001) - 1000)
	case 1:
		return 0.1 * float64(rng.Intn(1000)-300)
	case 2:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(25)-12))
	}
	return drawReal(rng)
}

// sameFloats reports whether two vectors hold the same bits.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
