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
