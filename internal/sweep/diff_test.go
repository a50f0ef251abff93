package sweep

import (
	"math/rand"
	"slices"
	"testing"
)

// pointInto writes position i's channel vector of d into out by a prefix
// march from zero.
func pointInto(d *diffArray, i int, out []int64) {
	clear(out)
	d.seek(-1, i, out)
}

// naiveAdd adds delta to channel ch of every position of ref (n positions
// × chans channels) in [l, r], clamped to the positions that exist.
func naiveAdd(ref []int64, n, chans, l, r, ch int, delta int64) {
	for i := max(l, 0); i <= min(r, n-1); i++ {
		ref[i*chans+ch] += delta
	}
}

// TestDiffArrayMatchesNaive drives a diffArray and a naive per-position
// array with the same randomized range-adds — out-of-range ends that
// exercise the clamping, empty ranges, single-position ranges, duplicate
// positions and deltas of twenty bits — and checks every position's
// point value under both the prefix march (step/seek, with
// multi-position jumps as the sweep's flat pass makes) and the from-zero
// read.
func TestDiffArrayMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(80)
		chans := 1 + rng.Intn(4)
		var dif diffArray
		dif.reset(n, chans)
		ref := make([]int64, n*chans)
		for range rng.Intn(120) {
			// l > r happens naturally and must be a no-op.
			l, r := rng.Intn(n+6)-3, rng.Intn(n+6)-3
			ch := rng.Intn(chans)
			d := int64(rng.Intn(1<<20) - 1<<19)
			dif.rangeAdd(l, r, ch, d)
			naiveAdd(ref, n, chans, l, r, ch, d)
		}
		got := make([]int64, chans)
		acc := make([]int64, chans)
		prev := -1
		for i := 0; i < n; i++ {
			want := ref[i*chans : (i+1)*chans]
			pointInto(&dif, i, got)
			if rng.Intn(3) == 0 && i > prev+1 {
				dif.seek(prev, i, acc)
			} else {
				for p := prev + 1; p <= i; p++ {
					dif.step(p, acc)
				}
			}
			prev = i
			for c := range want {
				if want[c] != got[c] || want[c] != acc[c] {
					t.Fatalf("trial %d pos %d ch %d: from zero %d, march %d, want %d", trial, i, c, got[c], acc[c], want[c])
				}
			}
		}
	}
}

// TestDiffArrayEdges pins the boundary semantics: probes before any delta
// see zeros, probes after all closing deltas see zeros again, ranges
// clamped at both ends hit every position, a range ending at n-1 parks
// its closing delta on the spill entry without corrupting reads, and step
// reports whether a channel moved.
func TestDiffArrayEdges(t *testing.T) {
	var d diffArray
	d.reset(10, 2)
	d.rangeAdd(3, 6, 0, 5)   // interior range
	d.rangeAdd(-4, 99, 1, 7) // clamped to [0, 9]
	d.rangeAdd(8, 9, 0, 2)   // closing delta at the spill entry
	d.rangeAdd(5, 2, 0, 100) // empty: no-op
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
	// Position 1 moves no channel; position 3 moves channel 0.
	acc := []int64{0, 7}
	if d.step(1, acc) || !d.step(3, acc) || acc[0] != 5 {
		t.Fatalf("step: %v", acc)
	}
	// seek with from >= to must be a no-op.
	acc = []int64{11, 22}
	d.seek(5, 5, acc)
	d.seek(7, 3, acc)
	if acc[0] != 11 || acc[1] != 22 {
		t.Fatalf("no-op seek mutated acc: %v", acc)
	}
}

// TestDiffArrayClampsAndEmpty: out-of-range ends clamp to the positions
// that exist, and an empty range changes nothing.
func TestDiffArrayClampsAndEmpty(t *testing.T) {
	var d diffArray
	d.reset(4, 2)
	d.rangeAdd(-3, 99, 0, 5) // every position
	d.rangeAdd(3, 1, 0, 7)   // empty
	d.rangeAdd(2, 9, 1, 1)   // positions 2 and 3
	got := make([]int64, 2)
	for i, want := range [][2]int64{{5, 0}, {5, 0}, {5, 1}, {5, 1}} {
		pointInto(&d, i, got)
		if [2]int64(got) != want {
			t.Fatalf("position %d: got %v, want %v", i, got, want)
		}
	}
}

// TestDiffArrayResetReuse: shrinking then regrowing reuses and re-zeroes
// the backing array; stale deltas from a previous life must not leak.
func TestDiffArrayResetReuse(t *testing.T) {
	var d diffArray
	d.reset(16, 3)
	for i := 0; i < 16; i++ {
		d.rangeAdd(i, i, i%3, int64(i+1))
	}
	d.reset(4, 2)
	out := make([]int64, 2)
	for i := 0; i < 4; i++ {
		pointInto(&d, i, out)
		if out[0] != 0 || out[1] != 0 {
			t.Fatalf("stale data after reset at %d: %v", i, out)
		}
	}
	d.reset(16, 3)
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

// TestDiffArrayPanics: dimensions that cannot hold a position or a
// channel are a caller bug, reported when the array is sized.
func TestDiffArrayPanics(t *testing.T) {
	for _, dims := range [][2]int{{0, 1}, {3, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("reset(%d, %d) did not panic", dims[0], dims[1])
				}
			}()
			var d diffArray
			d.reset(dims[0], dims[1])
		}()
	}
}

// TestDiffArraySeekMatchesStepping: a seek from any position to any later
// one — across block edges, within one block, from before position 0 and
// onto the spill entry n — leaves the accumulator where stepping each
// position leaves it, and folds no more rows than it steps over, for
// every n from 1 (one position, a block of one) up past a few blocks, and
// for n whose last block is partial, so the spill entry shares it.
func TestDiffArraySeekMatchesStepping(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for n := 1; n <= 40; n++ {
		chans := 1 + n%3
		var d diffArray
		d.reset(n, chans)
		for range 3 * n {
			l, r := rng.Intn(n+2)-1, rng.Intn(n+2)-1
			d.rangeAdd(l, r, rng.Intn(chans), int64(rng.Intn(1<<20)-1<<19))
		}
		for from := -1; from <= n; from++ {
			start := make([]int64, chans)
			d.seek(-1, from, start)
			for to := from; to <= n; to++ {
				want := append([]int64(nil), start...)
				for p := from + 1; p <= to; p++ {
					d.step(p, want)
				}
				got := append([]int64(nil), start...)
				folds := d.seek(from, to, got)
				if slices.Compare(got, want) != 0 {
					t.Fatalf("n=%d (block %d): seek %d→%d gave %v, stepping %v", n, d.bw, from, to, got, want)
				}
				if folds > to-from || folds > 2*d.bw+n/d.bw {
					t.Fatalf("n=%d (block %d): seek %d→%d folded %d rows", n, d.bw, from, to, folds)
				}
			}
		}
		// The spill entry's value is zero: every range closed by then.
		end := make([]int64, chans)
		d.seek(-1, n, end)
		if slices.ContainsFunc(end, func(v int64) bool { return v != 0 }) {
			t.Fatalf("n=%d: the spill entry holds %v, want zeros", n, end)
		}
	}
}
