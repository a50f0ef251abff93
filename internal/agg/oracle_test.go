package agg

import (
	"fmt"
	"math"
)

// This file keeps the uncompiled forms of Equation 1's bound and of the
// early-exit distance, as the oracles the compiled plans are held to bit
// for bit (TestBoundPlanMatchesOracle, TestScorePlanMatchesOracle). No
// search calls them: the searches bound and score through a compiled
// BoundPlan and ScorePlan.

// FinalizeBounds computes representation bounds lo/hi for a point whose
// covering set S satisfies full ⊆ S ⊆ full ∪ partial, given the channel
// vectors of the full and partial sets and the min/max partial values for
// each fA slot (mmMin[i] = +Inf, mmMax[i] = -Inf when the slot saw no
// partial object). This generalizes Lemma 5 to all three aggregators.
// The searches form the same intervals inside a compiled BoundPlan; this
// is kept as the plan's oracle.
func (c *Composite) FinalizeBounds(full, partial, mmMin, mmMax []float64, lo, hi []float64) {
	for i := range c.specs {
		s := &c.specs[i]
		switch s.kind {
		case Distribution:
			for d := 0; d < s.dims; d++ {
				f := full[s.chOff+d]
				lo[s.dimOff+d] = f
				hi[s.dimOff+d] = f + partial[s.chOff+d]
			}
		case Average:
			sum, cnt := full[s.chOff+avgChSum], full[s.chOff+avgChCount]
			pcnt := partial[s.chOff+avgChCount]
			var base float64
			if cnt > 0 {
				base = sum / cnt
			} else {
				base = 0 // empty selection is representable, F value 0
			}
			l, h := base, base
			if pcnt > 0 {
				m, M := mmMin[s.mmSlot], mmMax[s.mmSlot]
				// Adding any sub-multiset of values in [m, M] to a multiset
				// with mean `base` keeps the mean within [min(base,m),
				// max(base,M)]; with an empty full set the mean is either 0
				// (nothing added) or within [m, M].
				if m < l {
					l = m
				}
				if M > h {
					h = M
				}
			}
			lo[s.dimOff], hi[s.dimOff] = l, h
		case Sum:
			f := full[s.chOff+sumChSum]
			lo[s.dimOff] = f + partial[s.chOff+sumChNeg]
			hi[s.dimOff] = f + partial[s.chOff+sumChPos]
		case Count:
			f := full[s.chOff]
			lo[s.dimOff] = f
			hi[s.dimOff] = f + partial[s.chOff]
		}
	}
}

// IntegerDims reports which representation dimensions only take integer
// values (the count dimensions of fD and fC components), the isInt of
// LowerBoundInt; a BoundPlan reads the same from the kinds. Lower-bound
// computations exploit this: the nearest *achievable* value to the query
// inside [lo, hi] is an integer, which removes the fractional slack of
// the continuous Equation 1 gap and lets cells at the optimum's boundary
// be pruned at lb == d_opt instead of splitting on.
func (c *Composite) IntegerDims() []bool {
	out := make([]bool, c.dims)
	for i := range c.specs {
		s := &c.specs[i]
		if s.kind == Distribution || s.kind == Count {
			for d := 0; d < s.dims; d++ {
				out[s.dimOff+d] = true
			}
		}
	}
	return out
}

// DistanceUnder reports whether Distance(norm, u, v, w) < bound, and
// returns that distance when it is. The accumulation runs in exactly
// Distance's term order, so a completed pass returns a bit-identical
// value; the only shortcut is abandoning the sum once the running
// accumulator alone already rules the bound out, which cannot change
// the predicate because every remaining term is non-negative (under L2
// terms are squared; under L1 a negative weight would break the
// monotonicity, so encountering one falls back to the full Distance).
// When ok is false the returned value is only a lower bound on the true
// distance, not the distance itself. The searches score candidates
// through a compiled ScorePlan, which keeps this early stop; this is that
// plan's oracle.
func DistanceUnder(norm Norm, u, v, w []float64, bound float64) (float64, bool) {
	if len(u) != len(v) {
		panic(fmt.Sprintf("agg: distance between vectors of different dims %d vs %d", len(u), len(v)))
	}
	if w != nil && len(w) != len(u) {
		panic(fmt.Sprintf("agg: weight vector has dims %d, representations have %d", len(w), len(u)))
	}
	var acc float64
	switch norm {
	case L2:
		// Squared terms are non-negative for any weight sign; comparing
		// against bound² keeps the march in the squared domain
		// (squaredStop), and the final predicate below stays
		// authoritative.
		b2 := squaredStop(bound)
		for i := range u {
			d := u[i] - v[i]
			if w != nil {
				d *= w[i]
			}
			acc += d * d
			if acc >= b2 {
				return math.Sqrt(acc), false
			}
		}
		d := math.Sqrt(acc)
		return d, d < bound
	default: // L1
		// The negative-weight check must run before the march, not inside
		// it: once any later term can be negative, a partial sum reaching
		// bound proves nothing about the final one.
		if hasNegative(w) {
			d := Distance(norm, u, v, w)
			return d, d < bound
		}
		for i := range u {
			d := math.Abs(u[i] - v[i])
			if w != nil {
				d *= w[i]
			}
			acc += d
			if acc >= bound {
				return acc, false
			}
		}
		return acc, acc < bound
	}
}

// LowerBound implements Equation 1: the smallest possible weighted distance
// from the query representation q to any representation v with
// lo[i] ≤ v[i] ≤ hi[i]. Under L2 the same per-dimension gap construction is
// applied inside the Euclidean sum; both are valid lower bounds because the
// per-dimension deviation is minimized independently.
func LowerBound(norm Norm, q, lo, hi, w []float64) float64 {
	return LowerBoundInt(norm, q, lo, hi, w, nil)
}

// intGap returns the distance from q to the nearest integer in [lo, hi].
// lo and hi are themselves integers (fD counts), so the interval always
// contains one when lo ≤ hi.
func intGap(q, lo, hi float64) float64 {
	switch {
	case q > hi:
		return q - hi
	case q < lo:
		return lo - q
	default:
		f := math.Floor(q)
		c := math.Ceil(q)
		best := math.Inf(1)
		if f >= lo {
			best = q - f
		}
		if c <= hi && c-q < best {
			best = c - q
		}
		return best
	}
}

// LowerBoundInt is LowerBound with integer-awareness: dimensions flagged in
// isInt only admit integer representation values, so the per-dimension gap
// snaps to the nearest integer in [lo, hi]. A nil isInt degrades to
// LowerBound.
func LowerBoundInt(norm Norm, q, lo, hi, w []float64, isInt []bool) float64 {
	lb, _ := LowerBoundIntUnder(norm, q, lo, hi, w, isInt, math.Inf(1))
	return lb
}

// LowerBoundIntUnder reports whether LowerBoundInt(norm, q, lo, hi, w,
// isInt) < bound, and returns that bound when it is. It is DistanceUnder's
// argument applied to Equation 1: the terms are summed in LowerBoundInt's
// order, so a completed pass returns a bit-identical value, and the sum is
// abandoned once the accumulator alone rules the bound out — every
// remaining term is non-negative (squared under L2; under L1 a negative
// weight turns the shortcut off). When ok is false the returned value is
// only a lower bound on LowerBoundInt. No search calls it: the searches
// bound through a compiled BoundPlan, and this is that plan's oracle.
func LowerBoundIntUnder(norm Norm, q, lo, hi, w []float64, isInt []bool, bound float64) (float64, bool) {
	l2 := norm == L2
	stop := math.Inf(1)
	switch {
	case l2:
		stop = squaredStop(bound)
	case !hasNegative(w):
		stop = bound
	}
	var acc float64
	for i := range q {
		var g float64
		if isInt != nil && isInt[i] {
			g = intGap(q[i], lo[i], hi[i])
		} else {
			g = gap(q[i], lo[i], hi[i])
		}
		if w != nil {
			g *= w[i]
		}
		if l2 {
			g *= g
		}
		acc += g
		if acc >= stop {
			break
		}
	}
	if l2 {
		acc = math.Sqrt(acc)
	}
	return acc, acc < bound
}
