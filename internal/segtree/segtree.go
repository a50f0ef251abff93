// Package segtree provides Tree, a lazy segment tree over m positions
// supporting range-add updates and global max queries with argmax
// position — the classic substrate for the Optimal Enclosure (OE)
// algorithm for MaxRS (Nandy & Bhattacharya 1995; Choi et al. 2012):
// sweep the plane in y, range-add each rectangle's x-interval, and track
// the stabbing maximum.
package segtree

import "fmt"

// Tree is a segment tree over positions [0, n) with range-add and max
// query. The zero Tree is not usable; construct with New.
type Tree struct {
	n    int
	max  []float64 // max of the subtree, including pending add
	add  []float64 // pending add applied to the whole subtree
	arg  []int     // leftmost position attaining max
	size int       // number of internal nodes allocated (4n)
}

// New returns a tree over n positions, all initialized to 0. n must be
// positive.
func New(n int) *Tree {
	if n <= 0 {
		panic(fmt.Sprintf("segtree: non-positive size %d", n))
	}
	t := &Tree{n: n, size: 4 * n}
	t.max = make([]float64, t.size)
	t.add = make([]float64, t.size)
	t.arg = make([]int, t.size)
	t.build(1, 0, n-1)
	return t
}

func (t *Tree) build(node, lo, hi int) {
	t.arg[node] = lo
	if lo == hi {
		return
	}
	mid := (lo + hi) / 2
	t.build(2*node, lo, mid)
	t.build(2*node+1, mid+1, hi)
}

// Len returns the number of positions.
func (t *Tree) Len() int { return t.n }

// Add adds delta to every position in [l, r] (inclusive). Out-of-range
// portions are clipped; an empty effective range is a no-op.
func (t *Tree) Add(l, r int, delta float64) {
	if l < 0 {
		l = 0
	}
	if r >= t.n {
		r = t.n - 1
	}
	if l > r {
		return
	}
	t.update(1, 0, t.n-1, l, r, delta)
}

func (t *Tree) update(node, lo, hi, l, r int, delta float64) {
	if r < lo || hi < l {
		return
	}
	if l <= lo && hi <= r {
		t.max[node] += delta
		t.add[node] += delta
		return
	}
	mid := (lo + hi) / 2
	t.update(2*node, lo, mid, l, r, delta)
	t.update(2*node+1, mid+1, hi, l, r, delta)
	t.pull(node)
}

func (t *Tree) pull(node int) {
	left, right := 2*node, 2*node+1
	if t.max[left] >= t.max[right] {
		t.max[node] = t.max[left] + t.add[node]
		t.arg[node] = t.arg[left]
	} else {
		t.max[node] = t.max[right] + t.add[node]
		t.arg[node] = t.arg[right]
	}
}

// Max returns the maximum value over all positions and the leftmost
// position attaining it.
func (t *Tree) Max() (float64, int) { return t.max[1], t.arg[1] }

// Value returns the value at a single position (for testing/debugging).
func (t *Tree) Value(pos int) float64 {
	if pos < 0 || pos >= t.n {
		panic(fmt.Sprintf("segtree: position %d out of range [0,%d)", pos, t.n))
	}
	node, lo, hi := 1, 0, t.n-1
	var acc float64
	for lo != hi {
		acc += t.add[node]
		mid := (lo + hi) / 2
		if pos <= mid {
			node, hi = 2*node, mid
		} else {
			node, lo = 2*node+1, mid+1
		}
	}
	return acc + t.max[node]
}
