// Package segtree provides segment-tree substrates for the sweep-style
// algorithms of this library:
//
//   - Tree, a lazy segment tree over m positions supporting range-add
//     updates and global max queries with argmax position — the classic
//     substrate for the Optimal Enclosure (OE) algorithm for MaxRS
//     (Nandy & Bhattacharya 1995; Choi et al. 2012): sweep the plane in
//     y, range-add each rectangle's x-interval, and track the stabbing
//     maximum;
//   - Sparse2D, a two-dimensional sparse table over a grid answering
//     rectangular range min/max ("order statistic") queries in O(1) —
//     the substrate of the min/max companion structure that lets the
//     DS-Search SAT layer serve composites with fA min/max slots
//     (internal/dssearch, DESIGN.md §2 and §6).
package segtree

import (
	"fmt"
	"math"
)

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

// Sparse2D is a two-dimensional sparse table over a rows×width grid,
// each cell carrying `slots` (min, max) pairs. After an
// O(rows·width·log(rows)·log(width)·slots) build it answers both
// "min/max of slot s over columns [l, r) of row j" (QueryRow) and
// "min/max of slot s over the rectangle [j0, j1)×[i0, i1)"
// (QueryRegion) in O(1), with zero allocations on rebuild when the
// dimensions fit the retained slabs.
//
// The intended use is order-statistic summed-area-table companions:
// prefix sums telescope but minima/maxima do not, so rectangular
// min/max regions are answered by overlapping power-of-two blocks
// (min/max are idempotent, so double-counting the overlap is harmless)
// instead of four-corner lookups. The zero value is ready; call Reset
// before folding leaves.
type Sparse2D struct {
	rows, width, slots int
	li, lj             int // level counts: 1+floor(log2(width)), 1+floor(log2(rows))
	plane              int // floats per level: rows*width*slots
	mn, mx             []float64
	logs               []uint8 // logs[k] = floor(log2(k)), k in [1, max(rows,width)]
}

// block returns the base offset of the (kj, ki) level entry at (j, i):
// the fold of the rectangle [j, j+2^kj) × [i, i+2^ki).
func (t *Sparse2D) block(kj, ki, j, i int) int {
	return (kj*t.li+ki)*t.plane + (j*t.width+i)*t.slots
}

// Reset re-dimensions the table to rows×width with the given slot count
// and resets the leaf level to the fold identities (+Inf for min, -Inf
// for max), reusing the backing slabs when they fit.
func (t *Sparse2D) Reset(rows, width, slots int) {
	if rows < 1 || width < 1 || slots < 1 {
		panic(fmt.Sprintf("segtree: invalid Sparse2D dimensions %dx%dx%d", rows, width, slots))
	}
	t.rows, t.width, t.slots = rows, width, slots
	t.li, t.lj = 1+log2floor(width), 1+log2floor(rows)
	t.plane = rows * width * slots
	need := t.lj * t.li * t.plane
	if cap(t.mn) < need {
		t.mn = make([]float64, need)
		t.mx = make([]float64, need)
	} else {
		t.mn = t.mn[:need]
		t.mx = t.mx[:need]
	}
	side := width
	if rows > side {
		side = rows
	}
	if cap(t.logs) < side+1 {
		t.logs = make([]uint8, side+1)
	} else {
		t.logs = t.logs[:side+1]
	}
	for k := 2; k <= side; k++ {
		t.logs[k] = t.logs[k/2] + 1
	}
	for i := 0; i < t.plane; i++ {
		t.mn[i] = math.Inf(1)
		t.mx[i] = math.Inf(-1)
	}
}

// ResetFrom re-dimensions the table like src and copies src's leaf
// level — the per-cell folds — leaving the upper levels to Build. Since
// folding is monotone (a cell's min only falls, its max only rises), a
// table whose cells absorb further values is refreshed from the retained
// leaves alone: ResetFrom, Fold the new values, Build. src is only read.
func (t *Sparse2D) ResetFrom(src *Sparse2D) {
	t.Reset(src.rows, src.width, src.slots)
	copy(t.mn[:t.plane], src.mn[:src.plane])
	copy(t.mx[:t.plane], src.mx[:src.plane])
}

func log2floor(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}

// Fold folds value v into slot `slot` of leaf (row, i). Must be
// followed by Build before querying.
func (t *Sparse2D) Fold(row, i, slot int, v float64) {
	at := (row*t.width+i)*t.slots + slot
	if v < t.mn[at] {
		t.mn[at] = v
	}
	if v > t.mx[at] {
		t.mx[at] = v
	}
}

// Build fills the (kj, ki) levels from the leaves.
func (t *Sparse2D) Build() {
	s := t.slots
	// Column levels within each row: (0, ki) from (0, ki-1).
	for ki := 1; ki < t.li; ki++ {
		half := 1 << (ki - 1)
		for j := 0; j < t.rows; j++ {
			for i := 0; i+2*half <= t.width; i++ {
				d := t.block(0, ki, j, i)
				a := t.block(0, ki-1, j, i)
				b := t.block(0, ki-1, j, i+half)
				foldInto(t.mn[d:d+s], t.mx[d:d+s], t.mn[a:a+s], t.mx[a:a+s], t.mn[b:b+s], t.mx[b:b+s])
			}
		}
	}
	// Row levels: (kj, ki) from (kj-1, ki), every ki.
	for kj := 1; kj < t.lj; kj++ {
		half := 1 << (kj - 1)
		for ki := 0; ki < t.li; ki++ {
			for j := 0; j+2*half <= t.rows; j++ {
				for i := 0; i+(1<<ki) <= t.width; i++ {
					d := t.block(kj, ki, j, i)
					a := t.block(kj-1, ki, j, i)
					b := t.block(kj-1, ki, j+half, i)
					foldInto(t.mn[d:d+s], t.mx[d:d+s], t.mn[a:a+s], t.mx[a:a+s], t.mn[b:b+s], t.mx[b:b+s])
				}
			}
		}
	}
}

// foldInto writes the slot-wise fold of (amn,amx) and (bmn,bmx) into
// (dmn,dmx).
func foldInto(dmn, dmx, amn, amx, bmn, bmx []float64) {
	for s := range dmn {
		mn := amn[s]
		if bmn[s] < mn {
			mn = bmn[s]
		}
		dmn[s] = mn
		mx := amx[s]
		if bmx[s] > mx {
			mx = bmx[s]
		}
		dmx[s] = mx
	}
}

// foldBlock folds one table entry into mn/mx.
func (t *Sparse2D) foldBlock(at int, mn, mx []float64) {
	for s := 0; s < t.slots; s++ {
		if t.mn[at+s] < mn[s] {
			mn[s] = t.mn[at+s]
		}
		if t.mx[at+s] > mx[s] {
			mx[s] = t.mx[at+s]
		}
	}
}

// QueryRow folds the min/max of every slot over columns [l, r) of row
// into mn/mx (length >= slots; existing contents are kept as fold
// seeds, so callers can accumulate across several regions). Empty or
// out-of-range portions fold nothing. O(1): two overlapping blocks.
func (t *Sparse2D) QueryRow(row, l, r int, mn, mx []float64) {
	t.QueryRegion(row, row+1, l, r, mn, mx)
}

// Query is an alias for QueryRow, preserving the fold-accumulate
// contract of the previous per-row segment-tree bank.
func (t *Sparse2D) Query(row, l, r int, mn, mx []float64) {
	t.QueryRegion(row, row+1, l, r, mn, mx)
}

// QueryRegion folds the min/max of every slot over the rectangle of
// rows [j0, j1) × columns [i0, i1) into mn/mx (fold-accumulating, like
// QueryRow). Empty or out-of-range portions fold nothing. O(1): four
// overlapping power-of-two blocks.
func (t *Sparse2D) QueryRegion(j0, j1, i0, i1 int, mn, mx []float64) {
	if j0 < 0 {
		j0 = 0
	}
	if j1 > t.rows {
		j1 = t.rows
	}
	if i0 < 0 {
		i0 = 0
	}
	if i1 > t.width {
		i1 = t.width
	}
	if j0 >= j1 || i0 >= i1 {
		return
	}
	kj := int(t.logs[j1-j0])
	ki := int(t.logs[i1-i0])
	jb := j1 - (1 << kj)
	ib := i1 - (1 << ki)
	t.foldBlock(t.block(kj, ki, j0, i0), mn, mx)
	if ib != i0 {
		t.foldBlock(t.block(kj, ki, j0, ib), mn, mx)
	}
	if jb != j0 {
		t.foldBlock(t.block(kj, ki, jb, i0), mn, mx)
		if ib != i0 {
			t.foldBlock(t.block(kj, ki, jb, ib), mn, mx)
		}
	}
}
