package sweep

import (
	"fmt"
	"math/rand"
	"testing"

	"asrs/internal/asp"
	"asrs/internal/geom"
)

// TestIncrementalSweepBitIdentical: for integer-valued composites a
// production solver's flat pass returns the answer of New's classic walk —
// distance, point and representation — bit for bit in random sub-spaces,
// on sets from one rectangle up. The fixture snaps a third of the points
// to a coarse grid, so duplicate edge positions (deduplicated into shared
// interval boundaries) and the clamped first/last intervals are exercised.
func TestIncrementalSweepBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 45; trial++ {
		rects, q := incrFixture(t, rng, 1+rng.Intn([]int{12, 60, 250}[trial%3]))
		spaces := []geom.Rect{
			asp.Space(rects),
			{MinX: 10, MinY: 10, MaxX: 60, MaxY: 70},
			{MinX: rng.Float64() * 50, MinY: rng.Float64() * 50, MaxX: 50 + rng.Float64()*50, MaxY: 50 + rng.Float64()*50},
		}
		classic, err := New(rects, q)
		if err != nil {
			t.Fatal(err)
		}
		s := production(t, rects, q)
		for si, space := range spaces {
			want, wok := classic.SolveWithin(space)
			got, gok := s.SolveWithin(space)
			expectSameBits(t, fmt.Sprintf("trial %d (n=%d) space %d", trial, len(rects), si), want, got, wok, gok)
		}
		if s.Stats.FlatStrips == 0 || classic.Stats.FlatStrips != 0 {
			t.Fatalf("trial %d: flat strips %d production, %d classic: want the flat pass in production only", trial, s.Stats.FlatStrips, classic.Stats.FlatStrips)
		}
	}
}

// TestIncrementalSweepSolve: the full-plane Solve agrees too, on sets
// from one rectangle up (it exercises the empty covering set around the
// flat pass).
func TestIncrementalSweepSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 12; trial++ {
		rects, q := incrFixture(t, rng, 1+rng.Intn([]int{12, 60, 250}[trial%3]))
		classic, err := New(rects, q)
		if err != nil {
			t.Fatal(err)
		}
		expectSameBits(t, fmt.Sprintf("trial %d (n=%d)", trial, len(rects)), classic.Solve(), production(t, rects, q).Solve(), true, true)
	}
}

// TestIncrementalSweepFixedPoint: real-valued composites ride a production
// solver's int64 difference array as scaled limbs — one per channel on a
// dyadic grid, two for full-mantissa reals, three for reals spread over
// 1e-12…1e12, one set of those past 2 048 rectangles — and the answer
// (distance, point, representation bits) must match New's classic walk
// exactly: every limb sum is exact, so the different accumulation orders
// agree, and each channel folds once.
func TestIncrementalSweepFixedPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, kind := range realKinds {
		for trial := 0; trial <= 10; trial++ {
			n := 48 + rng.Intn(150)
			if trial == 10 {
				if !kind.chain {
					continue
				}
				n = 2049 + rng.Intn(20)
			}
			rects, q := realFixture(t, rng, n, kind.num)
			classic, err := New(rects, q)
			if err != nil {
				t.Fatal(err)
			}
			checkLimbs(t, classic, kind.fine, kind.chain)
			space := asp.Space(rects)
			want, wok := classic.SolveWithin(space)
			s := production(t, rects, q)
			got, gok := s.SolveWithin(space)
			expectSameBits(t, fmt.Sprintf("%s trial %d (n=%d)", kind.name, trial, n), want, got, wok, gok)
			if s.Stats.FlatStrips == 0 {
				t.Fatalf("%s trial %d: the flat pass did not run", kind.name, trial)
			}
		}
	}
}

// TestIncrementalSweepSteadyStateAllocs: a pooled production solver
// rebound to a new rectangle set sweeps it out of the scratch it already
// holds; all it allocates is the answer's representation (sorting a
// strip's dirty ranges through sort.Slice would allocate once per dirty
// strip).
func TestIncrementalSweepSteadyStateAllocs(t *testing.T) {
	s, sets, rebind := pooled(t, rand.New(rand.NewSource(101)))
	space := geom.Rect{MinX: 30, MinY: 30, MaxX: 70, MaxY: 70}
	i := 0
	solve := func() {
		rebind(sets[i%2])
		i++
		if _, ok := s.SolveWithin(space); !ok {
			t.Fatal("nothing found")
		}
	}
	solve()
	solve()
	before := s.Stats
	if allocs := testing.AllocsPerRun(10, solve); allocs > 1 {
		t.Fatalf("a rebound flat pass allocates %v times, want the answer's representation only", allocs)
	}
	if s.Stats.FlatStrips == before.FlatStrips {
		t.Fatal("the flat pass did not run")
	}
}
