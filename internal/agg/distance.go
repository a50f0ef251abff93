package agg

import (
	"fmt"
	"math"
)

// Norm selects the distance metric between aggregate representations. The
// paper presents L1 and notes the proposals extend to other metrics (§3.3);
// we implement both L1 and L2.
type Norm uint8

const (
	// L1 is the weighted Manhattan distance (the paper's default).
	L1 Norm = iota
	// L2 is the weighted Euclidean distance.
	L2
)

// String implements fmt.Stringer.
func (n Norm) String() string {
	switch n {
	case L1:
		return "L1"
	case L2:
		return "L2"
	default:
		return fmt.Sprintf("Norm(%d)", uint8(n))
	}
}

// Distance returns the weighted distance between representations u and v
// under the given norm: Σ|u[i]−v[i]|·w[i] for L1, sqrt(Σ((u[i]−v[i])·w[i])²)
// for L2. A nil w means unit weights. Panics when lengths disagree.
func Distance(norm Norm, u, v, w []float64) float64 {
	if len(u) != len(v) {
		panic(fmt.Sprintf("agg: distance between vectors of different dims %d vs %d", len(u), len(v)))
	}
	if w != nil && len(w) != len(u) {
		panic(fmt.Sprintf("agg: weight vector has dims %d, representations have %d", len(w), len(u)))
	}
	var acc float64
	switch norm {
	case L2:
		for i := range u {
			d := u[i] - v[i]
			if w != nil {
				d *= w[i]
			}
			acc += d * d
		}
		return math.Sqrt(acc)
	default: // L1
		for i := range u {
			d := math.Abs(u[i] - v[i])
			if w != nil {
				d *= w[i]
			}
			acc += d
		}
		return acc
	}
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
// distance, not the distance itself. This is the candidate-evaluation
// fast path of the sweep solvers: almost every enumerated region loses
// to the incumbent best within a dimension or two.
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

// gap returns the distance from q to the interval [lo, hi] (0 when inside).
func gap(q, lo, hi float64) float64 {
	switch {
	case q > hi:
		return q - hi
	case q < lo:
		return lo - q
	default:
		return 0
	}
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

// squaredStop is the value a running sum of squares may stop at under
// bound: once it reaches bound², its square root does too. That takes
// √fl(b·b) = b, which holds for a binary64 b whose square neither
// overflows nor underflows; a bound too small for that, a non-positive or
// a NaN one never stops the sum (the caller's final comparison decides),
// and one whose square overflows stops only at +Inf.
func squaredStop(bound float64) float64 {
	if bound > 0x1p-500 {
		return bound * bound
	}
	return math.Inf(1)
}

// hasNegative reports whether any weight is negative.
func hasNegative(w []float64) bool {
	for _, wi := range w {
		if wi < 0 {
			return true
		}
	}
	return false
}

// UnitWeights returns a weight vector of n ones.
func UnitWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}
