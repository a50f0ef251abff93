package dssearch

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"asrs/internal/geom"
)

// mkEdges builds the precomputed cell-edge array discretize passes to
// overlapRange/fullRange.
func mkEdges(min, step float64, n int) []float64 {
	edges := make([]float64, n+1)
	for i := range edges {
		edges[i] = min + float64(i)*step
	}
	return edges
}

// TestOverlapRange: exhaustive validation against the definition — cell i
// overlaps (lo, hi) iff x_i < hi and x_{i+1} > lo — from arbitrary walk
// seeds, in and out of range: the seeds must not show in the result.
func TestOverlapRange(t *testing.T) {
	const (
		min  = 10.0
		step = 2.5
		n    = 8
	)
	edges := mkEdges(min, step, n)
	cellX := func(i int) float64 { return min + float64(i)*step }
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5000; trial++ {
		lo := min - 5 + rng.Float64()*30
		hi := lo + rng.Float64()*20
		i0, i1 := overlapRange(lo, hi, rng.Intn(n+6)-3, rng.Intn(n+6)-3, edges)
		for i := 0; i < n; i++ {
			overlaps := cellX(i) < hi && cellX(i+1) > lo
			inRange := i >= i0 && i <= i1
			if overlaps != inRange {
				t.Fatalf("lo=%g hi=%g: cell %d overlaps=%v but range [%d,%d]", lo, hi, i, overlaps, i0, i1)
			}
		}
	}
}

// TestOverlapRangeEdgeAligned: interval endpoints exactly on cell edges.
func TestOverlapRangeEdgeAligned(t *testing.T) {
	// Cells [0,1], [1,2], [2,3], [3,4].
	edges := mkEdges(0, 1, 4)
	i0, i1 := overlapRange(1, 3, 0, 3, edges)
	if i0 != 1 || i1 != 2 {
		t.Fatalf("aligned (1,3): [%d,%d], want [1,2]", i0, i1)
	}
	// Degenerate open interval on an edge overlaps nothing.
	i0, i1 = overlapRange(2, 2, 3, 0, edges)
	if i0 <= i1 {
		t.Fatalf("degenerate interval: [%d,%d] non-empty", i0, i1)
	}
	// Entirely left/right of the grid.
	if i0, i1 := overlapRange(-5, -1, 2, 2, edges); i0 <= i1 {
		t.Fatalf("left of grid: [%d,%d]", i0, i1)
	}
	if i0, i1 := overlapRange(6, 9, 0, 0, edges); i0 <= i1 {
		t.Fatalf("right of grid: [%d,%d]", i0, i1)
	}
}

// TestFullRange: cells reported full must be inside [lo, hi] closed, and
// at most one cell on each flank may be excluded unnecessarily.
func TestFullRange(t *testing.T) {
	const (
		min  = 0.0
		step = 1.0
		n    = 10
	)
	edges := mkEdges(min, step, n)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 2000; trial++ {
		lo := rng.Float64() * 8
		hi := lo + rng.Float64()*5
		c0, c1 := overlapRange(lo, hi, 0, n-1, edges)
		if c0 > c1 {
			continue
		}
		f0, f1 := fullRange(c0, c1, lo, hi, edges)
		for i := f0; i <= f1; i++ {
			if min+float64(i)*step < lo || min+float64(i+1)*step > hi {
				t.Fatalf("lo=%g hi=%g: cell %d reported full but not contained", lo, hi, i)
			}
		}
	}
}

// TestSplitProperties: the two MBRs cover all dirty cells, and the lower
// bounds are the group minima.
func TestSplitProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		dirty := make([]cellInfo, n)
		for i := range dirty {
			x, y := rng.Float64()*100, rng.Float64()*100
			dirty[i] = cellInfo{
				rect: geom.Rect{MinX: x, MinY: y, MaxX: x + 1, MaxY: y + 1},
				lb:   rng.Float64() * 10,
			}
		}
		m1, lb1, m2, lb2 := split(dirty)
		minLB := math.Inf(1)
		for _, c := range dirty {
			if !m1.ContainsRect(c.rect) && !m2.ContainsRect(c.rect) {
				return false
			}
			if c.lb < minLB {
				minLB = c.lb
			}
		}
		return math.Min(lb1, lb2) == minLB
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSplitTwoCells: minimal input.
func TestSplitTwoCells(t *testing.T) {
	dirty := []cellInfo{
		{rect: geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, lb: 3},
		{rect: geom.Rect{MinX: 9, MinY: 9, MaxX: 10, MaxY: 10}, lb: 5},
	}
	m1, lb1, m2, lb2 := split(dirty)
	if m1.Area() != 1 || m2.Area() != 1 {
		t.Fatalf("two-cell split should isolate cells: %v %v", m1, m2)
	}
	if math.Min(lb1, lb2) != 3 || math.Max(lb1, lb2) != 5 {
		t.Fatalf("lbs = %g, %g", lb1, lb2)
	}
}

// TestSubtractRect: the pieces tile space∖f without leaking into f's
// interior.
func TestSubtractRect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 1000; trial++ {
		space := geom.NewRect(rng.Float64()*10, rng.Float64()*10, 10+rng.Float64()*10, 10+rng.Float64()*10)
		f := geom.NewRect(rng.Float64()*25, rng.Float64()*25, rng.Float64()*25, rng.Float64()*25)
		parts := appendSubtract(nil, space, f)
		for probe := 0; probe < 50; probe++ {
			p := geom.Point{
				X: space.MinX + rng.Float64()*space.Width(),
				Y: space.MinY + rng.Float64()*space.Height(),
			}
			inParts := false
			for _, r := range parts {
				if r.ContainsClosed(p) {
					inParts = true
				}
			}
			if f.ContainsOpen(p) {
				// Interior points of f may only appear on part boundaries,
				// never in part interiors.
				for _, r := range parts {
					if r.ContainsOpen(p) {
						t.Fatalf("point %v inside excluded %v leaked into %v", p, f, r)
					}
				}
			} else if !inParts {
				t.Fatalf("point %v in space %v minus %v not covered by %v", p, space, f, parts)
			}
		}
	}
}

// TestPickSeedsDistinct: seeds are always two distinct indices.
func TestPickSeedsDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(30)
		dirty := make([]cellInfo, n)
		same := rng.Intn(2) == 0
		for i := range dirty {
			x, y := rng.Float64()*10, rng.Float64()*10
			if same {
				x, y = 5, 5 // all coincident
			}
			dirty[i] = cellInfo{rect: geom.Rect{MinX: x, MinY: y, MaxX: x + 1, MaxY: y + 1}}
		}
		a, b := pickSeeds(dirty)
		if a == b {
			t.Fatalf("trial %d: identical seeds %d", trial, a)
		}
	}
}
