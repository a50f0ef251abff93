package dssearch

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"asrs/internal/agg"
	"asrs/internal/asp"
	"asrs/internal/attr"
	"asrs/internal/geom"
)

// refSweepUnder is sweepUnder without its space bound: the gathering
// pass, the rebind and the capped sweep every mini-sweep ran before a
// swept space was bounded. It also returns how many rectangles it swept.
func (s *Searcher) refSweepUnder(space geom.Rect, ids []int32, capDist float64) (asp.Result, bool, int) {
	var rects []geom.Rect
	var rows []int32
	base := make([]float64, s.core.limbs.Eff())
	for _, id := range ids {
		r := s.rect(id)
		if r.ContainsRectOpen(space) {
			for _, cb := range s.core.rectContribs(id) {
				base[cb.Ch] += cb.V
			}
		} else if r.MinX < space.MaxX && space.MinX < r.MaxX && r.MinY < space.MaxY && space.MinY < r.MaxY {
			rects, rows = append(rects, r), append(rows, id)
		}
	}
	s.sw.Rebind(rects, rows, base)
	r, ok := s.sw.SolveWithinCapped(space, capDist)
	return r, ok, len(rects)
}

// TestSweepUnderMatchesUnbounded holds sweepUnder, whose space bound may
// return a sweep's +Inf result unswept, to the unbounded sweep of the same
// ids: the same distance, point and representation bits and the same ok,
// on the composites of TestDiscretizeMatchesReference (one, two and three
// limbs, and an Average's min/max slots), over spaces from slivers inside
// every rectangle they meet to spaces the incremental sweep takes,
// zero-width and zero-height ones included, under caps from below the
// space's minimum to above it — the minimum itself and the floats on
// either side of it among them, where the minimum must come back. A sweep
// under no cap (+Inf) is the exact record and is never skipped, even when
// its bound overflows to +Inf; every case must skip some sweeps, and some
// at a cap equal to the minimum's predecessor.
func TestSweepUnderMatchesUnbounded(t *testing.T) {
	cases := equivCases()
	// A target out of L2's range: every distance and every bound is +Inf.
	overflow := cases[0]
	overflow.name = "overflow"
	cases = append(cases, overflow)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := tc.composite(t)
			rng := rand.New(rand.NewSource(4817))
			bounded, atMin, incremental := 0, 0, 0
			for trial := 0; trial < 12; trial++ {
				n := 300 + rng.Intn(500)
				rw := []float64{7.5, 5, 12.3}[trial%3]
				rh := []float64{6, 5, 0.7}[trial%3]
				objs := make([]attr.Object, n)
				for i := range objs {
					x, y := rng.Float64()*100, rng.Float64()*100
					if rng.Intn(2) == 0 { // edges collide with each other and with the spaces'
						x, y = float64(rng.Intn(20))*5, float64(rng.Intn(20))*5
					}
					objs[i] = attr.Object{Loc: geom.Point{X: x, Y: y}, Values: tc.values(rng, i)}
				}
				ds := &attr.Dataset{Objects: objs}
				target := make([]float64, f.Dims())
				weights := make([]float64, f.Dims())
				for d := range target {
					target[d] = float64(rng.Intn(40))
					weights[d] = 0.1 + rng.Float64()
				}
				norm := agg.Norm(trial % 2)
				if tc.name == "overflow" {
					target[0], norm = 1e300, agg.L2
				}
				q := asp.Query{F: f, Target: target, W: weights, Norm: norm}
				s, err := NewShapeSearcher(t, ds, rw, rh, q, Options{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				s.ensureScratch()
				for k := 0; k < 40; k++ {
					x, y := rng.Float64()*100, rng.Float64()*100
					if k%2 == 0 {
						x, y = float64(rng.Intn(20))*5, float64(rng.Intn(20))*5
					}
					w := []float64{1e-3, 0.4, 2, 9, 30}[k%5]
					h := []float64{1e-3, 0.4, 2, 9, 30}[(k/5)%5]
					space := geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
					switch k % 8 {
					case 3:
						space.MaxX = space.MinX // zero width
					case 6:
						space.MaxY = space.MinY // zero height
					}
					ids := s.AppendWindowIDs(space, nil)
					exact, _, swept := s.refSweepUnder(space, ids, math.Inf(1))
					if swept >= 48 && w > 1 && h > 1 {
						incremental++
					}
					m := exact.Dist
					caps := []float64{math.Inf(1), math.Inf(-1), 0, m / 2, math.Nextafter(m, math.Inf(-1)), m, math.Nextafter(m, math.Inf(1)), m * 1.5, m + 1}
					for _, capDist := range caps {
						want, wok, _ := s.refSweepUnder(space, ids, capDist)
						before := s.Stats.SweepsBounded
						got, gok := s.sweepUnder(space, ids, capDist)
						skipped := s.Stats.SweepsBounded - before
						where := fmt.Sprintf("trial %d space %d %v (%d ids), cap %v (minimum %v)", trial, k, space, len(ids), capDist, m)
						if !sameResult(got, want) || gok != wok ||
							math.Float64bits(got.Point.X) != math.Float64bits(want.Point.X) || math.Float64bits(got.Point.Y) != math.Float64bits(want.Point.Y) {
							t.Fatalf("%s: sweepUnder answered %v %v (ok %v, %d skipped), the unbounded sweep %v %v (ok %v)",
								where, got.Dist, got.Point, gok, skipped, want.Dist, want.Point, wok)
						}
						if skipped > 0 && math.IsInf(capDist, 1) {
							t.Fatalf("%s: a sweep under no cap was skipped", where)
						}
						bounded += skipped
						if skipped > 0 && capDist == math.Nextafter(m, math.Inf(-1)) {
							atMin++
						}
					}
				}
			}
			t.Logf("%d sweeps skipped, %d of them at the minimum's predecessor, %d spaces the incremental sweep took", bounded, atMin, incremental)
			if tc.name == "overflow" {
				return
			}
			if bounded == 0 || atMin == 0 || incremental == 0 {
				t.Fatalf("%d sweeps skipped, %d of them at the minimum's predecessor, %d spaces the incremental sweep took: want some of each", bounded, atMin, incremental)
			}
		})
	}
}
