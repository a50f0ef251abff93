package segtree_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"asrs/internal/segtree"
)

// naive is the reference implementation: a plain array.
type naive []float64

func (n naive) add(l, r int, d float64) {
	if l < 0 {
		l = 0
	}
	if r >= len(n) {
		r = len(n) - 1
	}
	for i := l; i <= r; i++ {
		n[i] += d
	}
}

func (n naive) max() (float64, int) {
	best, arg := n[0], 0
	for i, v := range n {
		if v > best {
			best, arg = v, i
		}
	}
	return best, arg
}

// TestAgainstNaive drives random range adds and compares max/argmax and
// point values with the reference array.
func TestAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(200)
		tree := segtree.New(n)
		ref := make(naive, n)
		for op := 0; op < 300; op++ {
			l := rng.Intn(n)
			r := l + rng.Intn(n-l)
			d := rng.NormFloat64()
			tree.Add(l, r, d)
			ref.add(l, r, d)

			wm, _ := ref.max()
			gm, ga := tree.Max()
			if diff := gm - wm; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("trial %d op %d: max %g vs %g", trial, op, gm, wm)
			}
			// The reported argmax must attain the max (positions may
			// differ under ties).
			if diff := ref[ga] - wm; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("trial %d op %d: argmax %d has %g, max is %g", trial, op, ga, ref[ga], wm)
			}
			p := rng.Intn(n)
			if diff := tree.Value(p) - ref[p]; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("trial %d op %d: value(%d) %g vs %g", trial, op, p, tree.Value(p), ref[p])
			}
		}
	}
}

// TestQuickRangeAdd: property-based batched comparison.
func TestQuickRangeAdd(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(64)
		tree := segtree.New(n)
		ref := make(naive, n)
		for op := 0; op < 50; op++ {
			l := rng.Intn(n)
			r := l + rng.Intn(n-l)
			d := float64(rng.Intn(21) - 10)
			tree.Add(l, r, d)
			ref.add(l, r, d)
		}
		gm, _ := tree.Max()
		wm, _ := ref.max()
		return gm == wm
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestClipping(t *testing.T) {
	tree := segtree.New(5)
	tree.Add(-10, 100, 2) // clipped to [0,4]
	if m, _ := tree.Max(); m != 2 {
		t.Fatalf("max = %g, want 2", m)
	}
	tree.Add(7, 9, 5) // fully out of range: no-op
	if m, _ := tree.Max(); m != 2 {
		t.Fatalf("max after oob add = %g, want 2", m)
	}
	tree.Add(3, 1, 5) // empty range: no-op
	if m, _ := tree.Max(); m != 2 {
		t.Fatalf("max after empty add = %g, want 2", m)
	}
}

func TestArgmaxLeftmost(t *testing.T) {
	tree := segtree.New(8)
	tree.Add(2, 5, 3)
	if _, arg := tree.Max(); arg != 2 {
		t.Fatalf("argmax = %d, want leftmost 2", arg)
	}
}

func TestPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) should panic")
		}
	}()
	segtree.New(0)
}

func TestValuePanics(t *testing.T) {
	tree := segtree.New(3)
	defer func() {
		if recover() == nil {
			t.Fatal("Value(-1) should panic")
		}
	}()
	tree.Value(-1)
}

func TestLen(t *testing.T) {
	if segtree.New(17).Len() != 17 {
		t.Fatal("Len")
	}
}
