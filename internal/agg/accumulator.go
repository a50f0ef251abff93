package agg

import "asrs/internal/attr"

// Accumulator maintains the channel vector of a dynamic object set and
// supports O(k) insertion and removal, where k is the number of channel
// contributions of one object, summing them in float as they come.
// Representation runs on one; the search evaluators sum in limbs
// (Limbs) instead.
//
// The zero Accumulator is not usable; construct with NewAccumulator.
type Accumulator struct {
	c    *Composite
	ch   []float64
	n    int // objects currently in the set
	cbuf []Contrib
}

// NewAccumulator returns an empty accumulator for the composite c.
func NewAccumulator(c *Composite) *Accumulator {
	return &Accumulator{c: c, ch: make([]float64, c.Channels()), cbuf: make([]Contrib, 0, 8)}
}

// Add inserts object o into the set.
func (a *Accumulator) Add(o *attr.Object) {
	a.cbuf = a.c.AppendContribs(o, a.cbuf[:0])
	for _, cb := range a.cbuf {
		a.ch[cb.Ch] += cb.V
	}
	a.n++
}

// Remove deletes object o from the set. Removing an object that was never
// added corrupts the accumulator; callers are responsible for pairing.
func (a *Accumulator) Remove(o *attr.Object) {
	a.cbuf = a.c.AppendContribs(o, a.cbuf[:0])
	for _, cb := range a.cbuf {
		a.ch[cb.Ch] -= cb.V
	}
	a.n--
}

// Len returns the number of objects currently accumulated.
func (a *Accumulator) Len() int { return a.n }

// Reset empties the accumulator.
func (a *Accumulator) Reset() {
	for i := range a.ch {
		a.ch[i] = 0
	}
	a.n = 0
}

// Representation writes the aggregate representation of the current set
// into out, which must have length Dims().
func (a *Accumulator) Representation(out []float64) {
	a.c.FinalizeExact(a.ch, out)
}

// Channels exposes the raw channel vector (read-only by convention).
func (a *Accumulator) Channels() []float64 { return a.ch }
