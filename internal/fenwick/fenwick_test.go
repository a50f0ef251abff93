package fenwick_test

import (
	"math/rand"
	"testing"

	"asrs/internal/fenwick"
)

// newTree returns a tree over n positions with the given channel count.
func newTree(n, chans int) *fenwick.Int64Tree1D {
	t := &fenwick.Int64Tree1D{}
	t.Reset(n, chans)
	return t
}

// pointInto writes position i's channel vector of d into out by a prefix
// march from zero — O(i·chans), the read the tree answers in O(log n).
func pointInto(d *fenwick.Int64Diff1D, i int, out []int64) {
	clear(out)
	d.Advance(-1, i, out)
}

// TestClampsAndEmpty: out-of-range ends clamp to the positions that
// exist, and an empty range changes nothing — on the tree and on its flat
// counterpart alike.
func TestClampsAndEmpty(t *testing.T) {
	tree := newTree(4, 2)
	var diff fenwick.Int64Diff1D
	diff.Reset(4, 2)
	for _, add := range []func(l, r, ch int, d int64){tree.RangeAdd, diff.RangeAdd} {
		add(-3, 99, 0, 5) // every position
		add(3, 1, 0, 7)   // empty
		add(2, 9, 1, 1)   // positions 2 and 3
	}
	got, flat := make([]int64, 2), make([]int64, 2)
	for i, want := range [][2]int64{{5, 0}, {5, 0}, {5, 1}, {5, 1}} {
		tree.PointInto(i, got)
		pointInto(&diff, i, flat)
		if [2]int64(got) != want || [2]int64(flat) != want {
			t.Fatalf("position %d: tree %v, flat %v, want %v", i, got, flat, want)
		}
	}
}

// TestPanics: dimensions that cannot hold a position or a channel are a
// caller bug, reported when the structure is sized.
func TestPanics(t *testing.T) {
	var tree fenwick.Int64Tree1D
	var diff fenwick.Int64Diff1D
	for _, fn := range []func(){
		func() { tree.Reset(0, 1) },
		func() { tree.Reset(3, 0) },
		func() { diff.Reset(0, 1) },
		func() { diff.Reset(3, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// TestTree1DRangeAddPointQuery validates the range-add/point-query tree
// against a brute-force array, including clamped and empty ranges, and
// Reset's reuse of its storage.
func TestTree1DRangeAddPointQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(60)
		chans := 1 + rng.Intn(4)
		tree := newTree(n, chans)
		ref := make([]int64, n*chans)
		for op := 0; op < 200; op++ {
			l := rng.Intn(n+4) - 2
			r := rng.Intn(n+4) - 2
			ch := rng.Intn(chans)
			delta := int64(rng.Intn(21) - 10)
			tree.RangeAdd(l, r, ch, delta)
			for i := max(l, 0); i <= min(r, n-1); i++ {
				ref[i*chans+ch] += delta
			}
		}
		out := make([]int64, chans)
		for i := 0; i < n; i++ {
			tree.PointInto(i, out)
			for c := 0; c < chans; c++ {
				if out[c] != ref[i*chans+c] {
					t.Fatalf("trial %d pos %d ch %d: got %v want %v", trial, i, c, out[c], ref[i*chans+c])
				}
			}
		}
		// Reset reuses storage and zeroes.
		tree.Reset(n, chans)
		tree.PointInto(0, out)
		for c := range out {
			if out[c] != 0 {
				t.Fatal("Reset did not zero the tree")
			}
		}
	}
}

// TestInt64Tree1D: the sums carried for scaled limbs must match an exact
// integer reference over deltas of twenty bits.
func TestInt64Tree1D(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(40)
		chans := 1 + rng.Intn(3)
		tree := newTree(n, chans)
		ref := make([]int64, n*chans)
		for op := 0; op < 150; op++ {
			l := rng.Intn(n+4) - 2
			r := rng.Intn(n+4) - 2
			ch := rng.Intn(chans)
			delta := int64(rng.Intn(1<<20) - 1<<19)
			tree.RangeAdd(l, r, ch, delta)
			for i := max(l, 0); i <= min(r, n-1); i++ {
				ref[i*chans+ch] += delta
			}
		}
		out := make([]int64, chans)
		for i := 0; i < n; i++ {
			tree.PointInto(i, out)
			for c := 0; c < chans; c++ {
				if out[c] != ref[i*chans+c] {
					t.Fatalf("trial %d pos %d ch %d: got %v want %v", trial, i, c, out[c], ref[i*chans+c])
				}
			}
		}
	}
}
