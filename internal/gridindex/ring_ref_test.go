package gridindex

import (
	"math"
	"math/rand"
	"testing"
)

// refRingMinMax is RingMinMax as a cell-by-cell scan with a hole test per
// cell, kept as the oracle of the row scan: it folds the per-cell
// minima/maxima of cells in [l,r)×[b,t) \ [il,ir)×[ib,it) into
// mmMin/mmMax.
func (x *Index) refRingMinMax(l, r, b, t, il, ir, ib, it int, mmMin, mmMax []float64) {
	if x.mmSlots == 0 {
		return
	}
	clampI := func(v int) int {
		if v < 0 {
			return 0
		}
		if v > x.sx {
			return x.sx
		}
		return v
	}
	clampJ := func(v int) int {
		if v < 0 {
			return 0
		}
		if v > x.sy {
			return x.sy
		}
		return v
	}
	l, r, b, t = clampI(l), clampI(r), clampJ(b), clampJ(t)
	for j := b; j < t; j++ {
		for i := l; i < r; i++ {
			if i >= il && i < ir && j >= ib && j < it {
				continue
			}
			at := (j*x.sx + i) * x.mmSlots
			for s := 0; s < x.mmSlots; s++ {
				if v := x.cellMin[at+s]; v < mmMin[s] {
					mmMin[s] = v
				}
				if v := x.cellMax[at+s]; v > mmMax[s] {
					mmMax[s] = v
				}
			}
		}
	}
}

// ringValue draws a cell's minimum or maximum: mostly −0 and +0, so that
// which of equal values a scan keeps shows in the bits, and a few small
// integers, with an empty cell's infinities among them.
func ringValue(rng *rand.Rand, empty float64) float64 {
	switch rng.Intn(8) {
	case 0, 1, 2:
		return 0
	case 3, 4, 5:
		return math.Copysign(0, -1)
	case 6:
		return empty
	}
	return float64(rng.Intn(5) - 2)
}

// TestRingMinMaxMatchesCellScan holds the row scan to the cell-by-cell
// scan bit for bit: random grids of one to three min/max slots whose
// cells hold mostly ±0, and random boxes reaching past the grid on every
// side (and boxes empty or inverted), with holes inside them, straddling
// them, outside them and empty, folded into slots that start at their
// identities, at ±0 or at small values. Where a box's cells hold −0 and
// +0, only a scan in the cell-by-cell order keeps the same zero.
func TestRingMinMaxMatchesCellScan(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for trial := 0; trial < 300; trial++ {
		sx, sy, m := 1+rng.Intn(9), 1+rng.Intn(9), 1+rng.Intn(3)
		x := &Index{sx: sx, sy: sy, mmSlots: m, cellMin: make([]float64, sx*sy*m), cellMax: make([]float64, sx*sy*m)}
		for c := range x.cellMin {
			x.cellMin[c], x.cellMax[c] = ringValue(rng, math.Inf(1)), ringValue(rng, math.Inf(-1))
		}
		for q := 0; q < 40; q++ {
			coord := func(n int) int { return rng.Intn(n+7) - 3 }
			l, r, b, top := coord(sx), coord(sx), coord(sy), coord(sy)
			il, ir, ib, it := coord(sx), coord(sx), coord(sy), coord(sy)
			switch rng.Intn(4) {
			case 0: // a hole inside the box
				if r > l && top > b {
					il, ir = l+rng.Intn(r-l), r-rng.Intn(r-l)
					ib, it = b+rng.Intn(top-b), top-rng.Intn(top-b)
				}
			case 1: // an empty hole
				ir, it = il-rng.Intn(2), ib-rng.Intn(2)
			case 2: // a hole wholly outside the box
				il, ir = r+rng.Intn(3), r+3+rng.Intn(3)
			}
			wantMin, wantMax := make([]float64, m), make([]float64, m)
			for s := range wantMin {
				switch rng.Intn(3) {
				case 0:
					wantMin[s], wantMax[s] = math.Inf(1), math.Inf(-1)
				case 1:
					wantMin[s], wantMax[s] = ringValue(rng, math.Inf(1)), ringValue(rng, math.Inf(-1))
				default:
					wantMin[s], wantMax[s] = float64(rng.Intn(3)), float64(-rng.Intn(3))
				}
			}
			gotMin, gotMax := append([]float64(nil), wantMin...), append([]float64(nil), wantMax...)
			x.refRingMinMax(l, r, b, top, il, ir, ib, it, wantMin, wantMax)
			x.RingMinMax(l, r, b, top, il, ir, ib, it, gotMin, gotMax)
			for s := range wantMin {
				if math.Float64bits(gotMin[s]) != math.Float64bits(wantMin[s]) || math.Float64bits(gotMax[s]) != math.Float64bits(wantMax[s]) {
					t.Fatalf("trial %d, %dx%d grid, %d slots, box [%d,%d)x[%d,%d) hole [%d,%d)x[%d,%d): slot %d min/max %v/%v, cell scan %v/%v",
						trial, sx, sy, m, l, r, b, top, il, ir, ib, it, s, gotMin[s], gotMax[s], wantMin[s], wantMax[s])
				}
			}
		}
	}
}
