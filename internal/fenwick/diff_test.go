package fenwick_test

import (
	"math/rand"
	"testing"

	"asrs/internal/fenwick"
)

// TestDiff1DMatchesTreeInt64 drives an Int64Diff1D and an Int64Tree1D
// with the same randomized range-adds — including out-of-range ends that
// exercise the clamping, empty ranges, single-position ranges, and
// duplicate positions — and checks every position's point value matches
// under both the prefix-march (StepInto/Advance) and the from-zero read
// paths.
func TestDiff1DMatchesTreeInt64(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(80)
		chans := 1 + rng.Intn(4)
		var dif fenwick.Int64Diff1D
		dif.Reset(n, chans)
		tree := newTree(n, chans)
		ops := rng.Intn(120)
		for o := 0; o < ops; o++ {
			// Ends beyond the array in both directions; l > r happens
			// naturally and must be a no-op in both structures.
			l := rng.Intn(n+6) - 3
			r := rng.Intn(n+6) - 3
			ch := rng.Intn(chans)
			d := int64(rng.Intn(2001) - 1000)
			dif.RangeAdd(l, r, ch, d)
			tree.RangeAdd(l, r, ch, d)
		}
		want := make([]int64, chans)
		got := make([]int64, chans)
		acc := make([]int64, chans)
		prev := -1
		for i := 0; i < n; i++ {
			tree.PointInto(i, want)
			pointInto(&dif, i, got)
			for c := range want {
				if want[c] != got[c] {
					t.Fatalf("trial %d pos %d ch %d: from zero %v vs tree %v", trial, i, c, got[c], want[c])
				}
			}
			// The march path, with occasional multi-position Advance
			// jumps (probing only some positions, as the sweep does).
			if rng.Intn(3) == 0 && i > prev+1 {
				dif.Advance(prev, i, acc)
			} else {
				for p := prev + 1; p <= i; p++ {
					dif.StepInto(p, acc)
				}
			}
			prev = i
			for c := range want {
				if want[c] != acc[c] {
					t.Fatalf("trial %d pos %d ch %d: march %v vs tree %v", trial, i, c, acc[c], want[c])
				}
			}
		}
	}
}

// TestDiff1DEdges pins the boundary semantics: probes before any delta
// see zeros, probes after all closing deltas see zeros again, ranges
// clamped at both ends hit every position, and a range ending at n-1
// parks its closing delta on the spill entry without corrupting reads.
func TestDiff1DEdges(t *testing.T) {
	var d fenwick.Int64Diff1D
	d.Reset(10, 2)
	d.RangeAdd(3, 6, 0, 5)   // interior range
	d.RangeAdd(-4, 99, 1, 7) // clamped to [0, 9]
	d.RangeAdd(8, 9, 0, 2)   // closing delta at the spill entry
	d.RangeAdd(5, 2, 0, 100) // empty: no-op
	out := make([]int64, 2)
	for i := 0; i < 10; i++ {
		pointInto(&d, i, out)
		want0 := int64(0)
		if i >= 3 && i <= 6 {
			want0 = 5
		}
		if i >= 8 {
			want0 = 2
		}
		if out[0] != want0 || out[1] != 7 {
			t.Fatalf("pos %d: got %v want [%d 7]", i, out, want0)
		}
	}
	// Advance with from >= to must be a no-op.
	acc := []int64{11, 22}
	d.Advance(5, 5, acc)
	d.Advance(7, 3, acc)
	if acc[0] != 11 || acc[1] != 22 {
		t.Fatalf("no-op Advance mutated acc: %v", acc)
	}
}

// TestDiff1DResetReuse: shrinking then regrowing reuses and re-zeroes
// the backing array; stale deltas from a previous life must not leak.
func TestDiff1DResetReuse(t *testing.T) {
	var d fenwick.Int64Diff1D
	d.Reset(16, 3)
	for i := 0; i < 16; i++ {
		d.RangeAdd(i, i, i%3, int64(i+1))
	}
	d.Reset(4, 2)
	out := make([]int64, 2)
	for i := 0; i < 4; i++ {
		pointInto(&d, i, out)
		if out[0] != 0 || out[1] != 0 {
			t.Fatalf("stale data after Reset at %d: %v", i, out)
		}
	}
	d.Reset(16, 3)
	out = make([]int64, 3)
	for i := 0; i < 16; i++ {
		pointInto(&d, i, out)
		for c, v := range out {
			if v != 0 {
				t.Fatalf("stale data after regrow at %d ch %d: %d", i, c, v)
			}
		}
	}
}
