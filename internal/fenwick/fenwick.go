// Package fenwick provides the one-dimensional range-add / point-query
// structures, each position carrying several value channels, behind the
// incremental sweep's strip evaluators (internal/sweep): a Fenwick
// (binary indexed) tree with O(log n) updates and reads, and its flat
// difference-array counterpart read by one ascending march.
package fenwick

import "fmt"

// Value constrains the element types a Fenwick tree can carry. The
// int64 instantiation exists for the fixed-point fast paths (DESIGN.md
// §2): limb contributions certified to quantize losslessly onto a
// power-of-two grid are carried as scaled integers, so every partial
// sum is exact by construction rather than by float headroom argument.
type Value interface {
	~int64 | ~float64
}

// Tree1D is a one-dimensional Fenwick tree over n positions, each
// carrying `chans` value channels, in range-add / point-query form:
// RangeAdd adds a delta to every position of an inclusive range in
// O(log n), and PointInto reads one position's channel vector in
// O(log n · chans). It is the substrate of the incremental sweep
// (internal/sweep): strip accumulators advance by edge deltas instead of
// rescanning every interval. The zero value is not usable; construct
// with New1D or Reset a recycled tree.
type Tree1D[T Value] struct {
	n, chans int
	// data is 1-based: position i lives at ((i+1)*chans ...); entry j
	// holds the standard BIT partial sums of the difference array.
	data []T
}

// Int64Tree1D carries scaled fixed-point limbs.
type Int64Tree1D = Tree1D[int64]

// New1D returns a tree over n positions with the given channel count.
func New1D[T Value](n, chans int) *Tree1D[T] {
	if n < 1 || chans < 1 {
		panic(fmt.Sprintf("fenwick: invalid dimensions %dx%d", n, chans))
	}
	t := &Tree1D[T]{}
	t.Reset(n, chans)
	return t
}

// Reset re-dimensions the tree to n positions × chans channels and
// zeroes it, reusing the backing array when it fits and at least
// doubling it when not.
func (t *Tree1D[T]) Reset(n, chans int) {
	t.n = n
	t.chans = chans
	t.data = zeroed(t.data, (n+1)*chans)
}

// Len returns the number of positions.
func (t *Tree1D[T]) Len() int { return t.n }

// RangeAdd adds delta to channel ch of every position in [l, r]
// (inclusive). Out-of-range ends are clamped; empty ranges are no-ops.
func (t *Tree1D[T]) RangeAdd(l, r, ch int, delta T) {
	if l < 0 {
		l = 0
	}
	if r >= t.n {
		r = t.n - 1
	}
	if l > r {
		return
	}
	for i := l + 1; i <= t.n; i += i & (-i) {
		t.data[i*t.chans+ch] += delta
	}
	for i := r + 2; i <= t.n; i += i & (-i) {
		t.data[i*t.chans+ch] -= delta
	}
}

// PointInto writes position i's channel vector into out (length chans).
func (t *Tree1D[T]) PointInto(i int, out []T) {
	for c := range out {
		out[c] = 0
	}
	for i = i + 1; i > 0; i -= i & (-i) {
		base := i * t.chans
		for c := 0; c < t.chans; c++ {
			out[c] += t.data[base+c]
		}
	}
}

// Diff1D is the flat counterpart of Tree1D: the same range-add /
// point-query semantics over a plain difference array. A range add is
// two writes (O(1) instead of O(log n)); point values are read by
// marching a running prefix accumulator across positions in ascending
// order (O(chans) per position stepped, a branch-light sequential pass
// that the tree walk can never match on dense probe sets). It is the
// substrate of the flat strip evaluator in internal/sweep: a whole
// strip's point queries resolve in one linear merge over the sorted
// deltas instead of one O(log n) tree walk each. The zero value is not
// usable; Reset before use.
type Diff1D[T Value] struct {
	n, chans int
	// data[p*chans+c] is the delta entering at position p: the point
	// value at position j is Σ_{p<=j} data[p*chans+c]. Entry n absorbs
	// the closing delta of ranges ending at n-1.
	data []T
}

// Int64Diff1D carries scaled fixed-point limbs.
type Int64Diff1D = Diff1D[int64]

// Reset re-dimensions the array to n positions × chans channels and
// zeroes it, reusing the backing array when it fits and at least
// doubling it when not.
func (d *Diff1D[T]) Reset(n, chans int) {
	if n < 1 || chans < 1 {
		panic(fmt.Sprintf("fenwick: invalid dimensions %dx%d", n, chans))
	}
	d.n = n
	d.chans = chans
	d.data = zeroed(d.data, (n+1)*chans)
}

// zeroed returns v with length need, all zero: v's backing array when it
// fits, else a fresh one of at least twice its capacity.
func zeroed[T Value](v []T, need int) []T {
	if cap(v) >= need {
		v = v[:need]
		clear(v)
		return v
	}
	return make([]T, need, max(need, 2*cap(v)))
}

// Len returns the number of positions.
func (d *Diff1D[T]) Len() int { return d.n }

// RangeAdd adds delta to channel ch of every position in [l, r]
// (inclusive). Out-of-range ends are clamped; empty ranges are no-ops.
// Clamping matches Tree1D.RangeAdd exactly, so the two structures stay
// interchangeable under any input.
func (d *Diff1D[T]) RangeAdd(l, r, ch int, delta T) {
	if l < 0 {
		l = 0
	}
	if r >= d.n {
		r = d.n - 1
	}
	if l > r {
		return
	}
	d.data[l*d.chans+ch] += delta
	d.data[(r+1)*d.chans+ch] -= delta
}

// StepInto folds position pos's delta row into acc (length chans):
// if acc held the point value at pos-1, it now holds the value at pos.
func (d *Diff1D[T]) StepInto(pos int, acc []T) (moved bool) {
	base := pos * d.chans
	for c := range acc {
		v := d.data[base+c]
		acc[c] += v
		moved = moved || v != 0
	}
	return moved
}

// Advance marches acc from the point value at position `from` to the
// value at position `to` (from == -1 means acc holds zeros, the value
// "before position 0"). Equivalent to calling StepInto for each
// position in (from, to]; from >= to is a no-op.
func (d *Diff1D[T]) Advance(from, to int, acc []T) {
	chans := d.chans
	for p := from + 1; p <= to; p++ {
		base := p * chans
		for c := range acc {
			acc[c] += d.data[base+c]
		}
	}
}

// PointInto writes position i's channel vector into out (length chans)
// by a prefix march from zero — O(i·chans); probe-heavy callers should
// march with Advance instead. Provided so Diff1D satisfies the same
// query surface as Tree1D in tests and sparse fallbacks.
func (d *Diff1D[T]) PointInto(i int, out []T) {
	for c := range out {
		out[c] = 0
	}
	d.Advance(-1, i, out)
}
