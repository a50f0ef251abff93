// Package fenwick provides the one-dimensional range-add / point-query
// structures, each position carrying several int64 channels, behind the
// incremental sweep's strip evaluators (internal/sweep): a Fenwick
// (binary indexed) tree with O(log n) updates and reads, and its flat
// difference-array counterpart read by one ascending march. The channels
// are scaled limbs (DESIGN.md §2): every partial sum is an exact integer.
package fenwick

import "fmt"

// Int64Tree1D is a one-dimensional Fenwick tree over n positions, each
// carrying `chans` channels, in range-add / point-query form: RangeAdd
// adds a delta to every position of an inclusive range in O(log n), and
// PointInto reads one position's channel vector in O(log n · chans). The
// zero value is not usable; Reset before use.
type Int64Tree1D struct {
	n, chans int
	// data is 1-based: position i lives at ((i+1)*chans ...); entry j
	// holds the standard BIT partial sums of the difference array.
	data []int64
}

// Reset re-dimensions the tree to n positions × chans channels and
// zeroes it, reusing the backing array when it fits and at least
// doubling it when not.
func (t *Int64Tree1D) Reset(n, chans int) {
	t.n, t.chans, t.data = n, chans, zeroed(t.data, n, chans)
}

// RangeAdd adds delta to channel ch of every position in [l, r]
// (inclusive). Out-of-range ends are clamped; empty ranges are no-ops.
func (t *Int64Tree1D) RangeAdd(l, r, ch int, delta int64) {
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
func (t *Int64Tree1D) PointInto(i int, out []int64) {
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

// Int64Diff1D is the flat counterpart of Int64Tree1D: the same range-add
// / point-query semantics over a plain difference array. A range add is
// two writes (O(1) instead of O(log n)); point values are read by
// marching a running prefix accumulator across positions in ascending
// order (O(chans) per position stepped, a branch-light sequential pass
// that the tree walk can never match on dense probe sets). It is the
// substrate of the flat strip evaluator in internal/sweep: a whole
// strip's point queries resolve in one linear merge over the sorted
// deltas instead of one O(log n) tree walk each. The zero value is not
// usable; Reset before use.
type Int64Diff1D struct {
	n, chans int
	// data[p*chans+c] is the delta entering at position p: the point
	// value at position j is Σ_{p<=j} data[p*chans+c]. Entry n absorbs
	// the closing delta of ranges ending at n-1.
	data []int64
}

// Reset re-dimensions the array to n positions × chans channels and
// zeroes it, reusing the backing array when it fits and at least
// doubling it when not.
func (d *Int64Diff1D) Reset(n, chans int) {
	d.n, d.chans, d.data = n, chans, zeroed(d.data, n, chans)
}

// zeroed returns v sized for n positions × chans channels plus a spill
// row, all zero: v's backing array when it fits, else a fresh one of at
// least twice its capacity. Dimensions that cannot hold a position or a
// channel are a caller bug.
func zeroed(v []int64, n, chans int) []int64 {
	if n < 1 || chans < 1 {
		panic(fmt.Sprintf("fenwick: invalid dimensions %dx%d", n, chans))
	}
	need := (n + 1) * chans
	if cap(v) >= need {
		v = v[:need]
		clear(v)
		return v
	}
	return make([]int64, need, max(need, 2*cap(v)))
}

// RangeAdd adds delta to channel ch of every position in [l, r]
// (inclusive). Out-of-range ends are clamped; empty ranges are no-ops.
// Clamping matches Int64Tree1D.RangeAdd exactly, so the two structures
// stay interchangeable under any input.
func (d *Int64Diff1D) RangeAdd(l, r, ch int, delta int64) {
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
func (d *Int64Diff1D) StepInto(pos int, acc []int64) (moved bool) {
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
func (d *Int64Diff1D) Advance(from, to int, acc []int64) {
	chans := d.chans
	for p := from + 1; p <= to; p++ {
		base := p * chans
		for c := range acc {
			acc[c] += d.data[base+c]
		}
	}
}
