package fenwick_test

import (
	"math/rand"
	"testing"

	"asrs/internal/fenwick"
)

// TestClampsAndEmpty: out-of-range ends clamp to the positions that
// exist, and an empty range changes nothing — on the tree and on its flat
// counterpart alike.
func TestClampsAndEmpty(t *testing.T) {
	tree := fenwick.New1D[float64](4, 2)
	var diff fenwick.Diff1D[float64]
	diff.Reset(4, 2)
	for _, add := range []func(l, r, ch int, d float64){tree.RangeAdd, diff.RangeAdd} {
		add(-3, 99, 0, 5) // every position
		add(3, 1, 0, 7)   // empty
		add(2, 9, 1, 1)   // positions 2 and 3
	}
	got, flat := make([]float64, 2), make([]float64, 2)
	for i, want := range [][2]float64{{5, 0}, {5, 0}, {5, 1}, {5, 1}} {
		tree.PointInto(i, got)
		diff.PointInto(i, flat)
		if [2]float64(got) != want || [2]float64(flat) != want {
			t.Fatalf("position %d: tree %v, flat %v, want %v", i, got, flat, want)
		}
	}
}

// TestPanics: dimensions that cannot hold a position or a channel are a
// caller bug, reported at construction.
func TestPanics(t *testing.T) {
	var diff fenwick.Diff1D[int64]
	for _, fn := range []func(){
		func() { fenwick.New1D[float64](0, 1) },
		func() { fenwick.New1D[int64](3, 0) },
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
// against a brute-force array, including clamped and empty ranges.
func TestTree1DRangeAddPointQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(60)
		chans := 1 + rng.Intn(4)
		tree := fenwick.New1D[float64](n, chans)
		ref := make([]float64, n*chans)
		for op := 0; op < 200; op++ {
			l := rng.Intn(n+4) - 2
			r := rng.Intn(n+4) - 2
			ch := rng.Intn(chans)
			delta := float64(rng.Intn(21) - 10)
			tree.RangeAdd(l, r, ch, delta)
			lo, hi := l, r
			if lo < 0 {
				lo = 0
			}
			if hi >= n {
				hi = n - 1
			}
			for i := lo; i <= hi; i++ {
				ref[i*chans+ch] += delta
			}
		}
		out := make([]float64, chans)
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

// TestInt64Tree1D validates the fixed-point (int64) instantiation: the
// sums carried for quantized channels must match an exact integer
// reference, with the same clamping semantics as the float tree.
func TestInt64Tree1D(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(40)
		chans := 1 + rng.Intn(3)
		tree := fenwick.New1D[int64](n, chans)
		ref := make([]int64, n*chans)
		for op := 0; op < 150; op++ {
			l := rng.Intn(n+4) - 2
			r := rng.Intn(n+4) - 2
			ch := rng.Intn(chans)
			delta := int64(rng.Intn(1<<20) - 1<<19)
			tree.RangeAdd(l, r, ch, delta)
			lo, hi := l, r
			if lo < 0 {
				lo = 0
			}
			if hi >= n {
				hi = n - 1
			}
			for i := lo; i <= hi; i++ {
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
