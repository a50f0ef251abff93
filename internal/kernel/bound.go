package kernel

import (
	"math"
	"sync/atomic"

	"asrs/internal/asp"
)

// Better is the total order on answers: by distance, then point X, then Y.
func Better(a, b asp.Result) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.Point.X < b.Point.X || a.Point.X == b.Point.X && a.Point.Y < b.Point.Y
}

// Bound is a search's pruning bound: the best answer found so far.
type Bound struct {
	div  float64 // 1+δ for the (1+δ)-approximate variant (§6), else 1
	best asp.Result
	ext  *ExtCap
}

// NewBound seeds a bound with an incumbent; delta > 0 selects (1+δ).
func NewBound(delta float64, seed asp.Result) *Bound {
	seed.Rep = append([]float64(nil), seed.Rep...)
	b := &Bound{div: 1, best: seed}
	if delta > 0 {
		b.div += delta
	}
	return b
}

// Best returns the current best answer.
func (b *Bound) Best() asp.Result { return b.best }

// Offer installs r (copying its representation) and publishes its
// distance to the attached cap if it is Better than the current best.
func (b *Bound) Offer(r asp.Result) bool {
	if !Better(r, b.best) {
		return false
	}
	r.Rep = append([]float64(nil), r.Rep...)
	b.best = r
	if b.ext != nil {
		b.ext.Publish(r.Dist)
	}
	return true
}

// SetExternal attaches a cap shared with sibling searches and publishes.
func (b *Bound) SetExternal(c *ExtCap) {
	if b.ext = c; c != nil {
		c.Publish(b.best.Dist)
	}
}

// Threshold is Equation 1's cutoff, d_opt or d_opt/(1+δ). A cap folds in
// open, as nextafter(cap/(1+δ), +Inf): it prunes only spaces strictly
// worse than a sibling's answer, so the gathered minimum stays exact.
func (b *Bound) Threshold() float64 { return threshold(b.best.Dist, b.div, b.ext) }

// Threshold is Bound.Threshold for a search that holds its incumbent's
// distance dist, its δ and its cap (nil for none) without a Bound.
func Threshold(dist, delta float64, ext *ExtCap) float64 {
	div := 1.0
	if delta > 0 {
		div += delta
	}
	return threshold(dist, div, ext)
}

func threshold(dist, div float64, ext *ExtCap) float64 {
	d := dist / div
	if ext != nil {
		if c := math.Nextafter(ext.Load()/div, math.Inf(1)); c < d {
			d = c
		}
	}
	return d
}

// ExtCap is the least distance found by sibling searches, +Inf at first.
type ExtCap struct{ bits atomic.Uint64 }

// NewExtCap returns a cap initialized to +Inf.
func NewExtCap() *ExtCap {
	c := &ExtCap{}
	c.bits.Store(math.Float64bits(math.Inf(1)))
	return c
}

// Load returns the current cap value.
func (c *ExtCap) Load() float64 { return math.Float64frombits(c.bits.Load()) }

// Publish lowers the cap to d if d is smaller. NaN is never installed.
func (c *ExtCap) Publish(d float64) {
	for cur := c.bits.Load(); d < math.Float64frombits(cur); cur = c.bits.Load() {
		if c.bits.CompareAndSwap(cur, math.Float64bits(d)) {
			return
		}
	}
}
