package dssearch

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"asrs/internal/agg"
	"asrs/internal/asp"
	"asrs/internal/attr"
	"asrs/internal/geom"
	"asrs/internal/kernel"
)

// equivCase is one composite of TestDiscretizeMatchesReference with the
// values its objects draw and the aggregation-layer regime it must land in.
type equivCase struct {
	name   string
	schema []attr.Attribute
	specs  []agg.Spec
	values func(rng *rand.Rand, i int) []attr.Value
	regime func(t *core) bool
}

func (tc equivCase) composite(t *testing.T) *agg.Composite {
	t.Helper()
	schema, err := attr.NewSchema(tc.schema...)
	if err != nil {
		t.Fatal(err)
	}
	f, err := agg.New(schema, tc.specs...)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func equivCases() []equivCase {
	f2Schema := []attr.Attribute{{Name: "rating", Kind: attr.Numeric}, {Name: "visits", Kind: attr.Numeric}}
	f2Specs := []agg.Spec{{Kind: agg.Sum, Attr: "visits"}, {Kind: agg.Average, Attr: "rating"}}
	return []equivCase{
		{
			// Tweet F1: seven integer fD channels, sorted master.
			name:   "integer-fD",
			schema: []attr.Attribute{{Name: "day", Kind: attr.Categorical, Domain: []string{"mo", "tu", "we", "th", "fr", "sa", "su"}}},
			specs:  []agg.Spec{{Kind: agg.Distribution, Attr: "day"}},
			values: func(rng *rand.Rand, _ int) []attr.Value { return []attr.Value{{Cat: rng.Intn(7)}} },
			regime: func(t *core) bool { return t.limbs.Eff() == t.chans },
		},
		{
			// F2 over decimal tenths: not dyadic, so the sums ride two
			// limbs and every cell vector is folded.
			name:   "two-float-decimal",
			schema: f2Schema,
			specs:  f2Specs,
			values: func(rng *rand.Rand, _ int) []attr.Value {
				return []attr.Value{{Num: float64(rng.Intn(101)) / 10}, {Num: 1 + float64(rng.Intn(5000))/10}}
			},
			regime: func(t *core) bool { return t.limbs.Eff() > t.chans && !chained(&t.limbs) },
		},
		{
			// F2 over visits spread from 1e-12 to 1e12 and a negative
			// zero: the visits sums ride chains of three limbs.
			name:   "three-limb",
			schema: f2Schema,
			specs:  f2Specs,
			values: func(rng *rand.Rand, i int) []attr.Value {
				v := spreadValue(rng)
				if i%9 == 7 {
					v = math.Copysign(0, -1)
				}
				return []attr.Value{{Num: rng.NormFloat64()}, {Num: v}}
			},
			regime: func(t *core) bool { return chained(&t.limbs) },
		},
		{
			// F2 over dyadic values (rating quarters, visits halves): every
			// channel one limb, with fA's min/max slot riding the sorted
			// master.
			name:   "avg-minmax",
			schema: f2Schema,
			specs:  f2Specs,
			values: func(rng *rand.Rand, _ int) []attr.Value {
				return []attr.Value{{Num: float64(rng.Intn(41)) * 0.25}, {Num: 1 + float64(rng.Intn(999))*0.5}}
			},
			regime: func(t *core) bool { return t.limbs.Eff() == t.chans && t.f.MinMaxSlots() > 0 },
		},
	}
}

// gridCells copies out what the passes read of the grids: full and
// partial limbs, partial-cover counts and the min/max slots of every cell
// (pads excluded). With overlap set the grid is production's, whose
// diffPart holds each cell's overlap limbs and count, and a cell's partial
// limbs and count are read as overlap − full, as boundPass and cleanPass
// read them; the reference's diffPart holds the partial limbs and count
// themselves.
func gridCells(g *gridBuffers, overlap bool) (out [5][]float64) {
	n := g.limbs
	for r := 0; r < g.nrow; r++ {
		for c := 0; c < g.ncol; c++ {
			idx := g.cellIdx(c, r)
			full := g.diffFull[idx*g.chans:][:g.chans]
			out[0] = append(out[0], full[:n]...)
			part := g.diffPart[idx*g.chans:][:g.chans]
			for i, v := range part[:n] {
				if overlap {
					v -= full[i]
				}
				out[1] = append(out[1], v)
			}
			cnt := part[n]
			if overlap {
				cnt -= full[n]
			}
			out[2] = append(out[2], cnt)
		}
	}
	out[3] = append(out[3], g.mmMin...)
	out[4] = append(out[4], g.mmMax...)
	return out
}

func sameResult(a, b asp.Result) bool {
	return a.Point == b.Point && math.Float64bits(a.Dist) == math.Float64bits(b.Dist) && sameBits(a.Rep, b.Rep) && len(a.Rep) == len(b.Rep)
}

// TestDiscretizeMatchesReference holds the production loops of grid.go —
// seeded edge walks, row-streamed integration, the clean-cell memo, the
// dirty-cell list — to the straightforward forms of grid_ref_test.go:
// the grids every pass reads, the incumbent after pass 1, the surviving
// dirty cells (order, extents, bounds), the incumbent after the probes
// and every work counter must agree bit for bit, on
// lattice-aligned edges, zero-extent rectangles, sub-ulp sliver spaces
// and ancestor clips, from mini-sweep-sized spaces up to the
// thousands-of-rectangles roots of a search, in one, two and three limbs.
// Pass 2 must give the reference's bound for every dirty cell of every
// grid, collapsed edge cells of the sliver spaces included, and the
// probes its incumbent. Every space is discretized twice: at the configured grid,
// and at the grid production sizes for a GI-DS cell's seed (gridFor),
// which the reference is run at too; the sized grids must hit the floor
// (cellGridMin), sizes between and the cap (the configured size).
func TestDiscretizeMatchesReference(t *testing.T) {
	const rootIds = 2048 // a space this full is a windowed search's root
	for _, tc := range equivCases() {
		t.Run(tc.name, func(t *testing.T) {
			f := tc.composite(t)
			rng := rand.New(rand.NewSource(2024))
			rootSpaces, memoHits := 0, 0
			var floor, middle, capped int
			probedEdge := 0 // probed rectangles of the ancestor-clip and sliver spaces
			for trial := 0; trial < 36; trial++ {
				n := 200 + rng.Intn(500)
				if trial%9 == 8 {
					n = 2600 + rng.Intn(1200)
				}
				rw := []float64{7.5, 5, 12.3, 0}[trial%4] // 0: zero-extent rectangles
				rh := []float64{6, 5, 0.7, 0}[trial%4]
				objs := make([]attr.Object, n)
				for i := range objs {
					x, y := rng.Float64()*100, rng.Float64()*100
					if rng.Intn(2) == 0 { // rect edges collide with each other and with cell edges
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
				q := asp.Query{F: f, Target: target, W: weights, Norm: agg.Norm(trial % 2)}
				ncol, nrow := 2+rng.Intn(29), 2+rng.Intn(29)
				opt := Options{NCol: ncol, NRow: nrow, Workers: 1}
				sNew, err := NewShapeSearcher(t, ds, rw, rh, q, opt)
				if err != nil {
					t.Fatal(err)
				}
				sRef, err := NewShapeSearcher(t, ds, rw, rh, q, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !tc.regime(sNew.core) {
					t.Fatalf("trial %d: composite landed in the wrong regime: %+v", trial, sNew.core.limbs.Scale)
				}
				sNew.ensureScratch()
				sRef.ensureScratch()

				spaces := []geom.Rect{
					sNew.Space(),
					{MinX: 10, MinY: 5, MaxX: 70, MaxY: 65},
					{MinX: rng.Float64() * 40, MinY: rng.Float64() * 40, MaxX: 60 + rng.Float64()*40, MaxY: 60 + rng.Float64()*40},
					{MinX: 30 + rng.Float64()*30, MinY: 30 + rng.Float64()*30},
					{MinX: 5, MinY: 40 - 1e-13, MaxX: 95, MaxY: 40 + 1e-13},
				}
				spaces[3].MaxX, spaces[3].MaxY = spaces[3].MinX+rw*0.3+1, spaces[3].MinY+rh*0.3+1 // mostly whole-space covers
				for k := range 2 * len(spaces) {
					si, cell := k/2, k%2 == 1
					space := spaces[si]
					clip := space
					if si%2 == 1 { // an ancestor clip tighter than the space (kernel.Item.Clip)
						clip.MaxX = space.MaxX - space.Width()*1e-13
						clip.MaxY = space.MaxY - space.Height()*5e-14
					}
					ids := sNew.AppendWindowIDs(clip, nil)
					if len(ids) >= rootIds {
						rootSpaces++
					}
					sNew.cell = cell
					gc, gr := sNew.gridFor(kernel.Item{Ids: ids})
					sNew.cell = false
					if cell {
						switch raw := int(math.Round(math.Sqrt(float64(len(ids)) / cellGridRects))); {
						case raw < cellGridMin && cellGridMin < ncol:
							floor++
						case raw > ncol:
							capped++
						case raw > cellGridMin && raw < ncol:
							middle++
						}
					}
					sNew.grid.shape(gc, gr)
					sRef.grid.shape(gc, gr)
					// A loose incumbent keeps every dirty cell alive; a tight
					// one prunes most of them.
					seed := sNew.emptyResult(space)
					if (trial+si)%2 == 1 {
						seed.Dist *= 0.35
					}
					fail := func(format string, args ...any) {
						t.Helper()
						t.Fatalf("trial %d space %d (%dx%d grid, %d ids): "+format, append([]any{trial, si, gc, gr, len(ids)}, args...)...)
					}

					// Reference, with the state between its scans kept.
					var refMid asp.Result
					var refGrids [5][]float64
					sRef.beginItem(seed)
					refBefore := sRef.Stats
					refDirty := sRef.refDiscretize(space, clip, ids, func() {
						refMid = asp.Result{Point: sRef.cur.Point, Dist: sRef.cur.Dist, Rep: append([]float64(nil), sRef.cur.Rep...)}
						refGrids = gridCells(sRef.grid, false)
					}, func(id int32) {
						// The invariant production's probes rely on: every
						// rectangle the master window yields is one of the
						// space's ids.
						if _, found := slices.BinarySearch(ids, id); !found {
							fail("a centre probe counts master id %d, which is not among the space's ids", id)
						}
						if si%2 == 1 || si == 4 {
							probedEdge++
						}
					})
					refDirty = append([]cellInfo(nil), refDirty...)

					// Production, step by step, for the same state.
					g := sNew.grid
					cw, chh := space.Width()/float64(gc), space.Height()/float64(gr)
					g.setEdges(space, cw, chh)
					sNew.beginItem(seed)
					g.reset()
					sNew.fillRects(space, ids, cw, chh)
					sNew.cleanPass(cw, chh)
					newGrids := gridCells(g, true)
					for k, name := range [5]string{"full", "part", "cnt", "mmMin", "mmMax"} {
						if len(newGrids[k]) != len(refGrids[k]) {
							fail("%s grid: %d values, reference %d", name, len(newGrids[k]), len(refGrids[k]))
						}
						for i := range newGrids[k] {
							if math.Float64bits(newGrids[k][i]) != math.Float64bits(refGrids[k][i]) {
								fail("%s[%d] = %v, reference %v", name, i, newGrids[k][i], refGrids[k][i])
							}
						}
					}
					if !sameResult(sNew.cur, refMid) {
						fail("incumbent after pass 1 = %+v, reference %+v", sNew.cur, refMid)
					}
					for i := 1; i < len(g.dirtyCells); i++ {
						if g.dirtyCells[i-1] >= g.dirtyCells[i] {
							fail("dirty-cell list not in row-major order at %d", i)
						}
					}

					// Production, as one call.
					sNew.beginItem(seed)
					newBefore := sNew.Stats
					newDirty := sNew.discretize(space, clip, ids)
					if len(newDirty) != len(refDirty) {
						fail("%d dirty cells, reference %d", len(newDirty), len(refDirty))
					}
					for i := range newDirty {
						if newDirty[i].rect != refDirty[i].rect || math.Float64bits(newDirty[i].lb) != math.Float64bits(refDirty[i].lb) {
							fail("dirty[%d] = %+v, reference %+v", i, newDirty[i], refDirty[i])
						}
					}
					if !sameResult(sNew.cur, sRef.cur) {
						fail("incumbent = %+v, reference %+v", sNew.cur, sRef.cur)
					}
					// Every counter the reference keeps must come out the
					// same; CleanEvals is new and bounded by CleanCells.
					evals := sNew.Stats.CleanEvals - newBefore.CleanEvals
					clean := sNew.Stats.CleanCells - newBefore.CleanCells
					if evals > clean || (clean > 0 && evals == 0) {
						fail("%d evaluations for %d clean cells", evals, clean)
					}
					memoHits += clean - evals
					if got, want := delta(sNew.Stats, newBefore), delta(sRef.Stats, refBefore); got != want {
						fail("work counters %+v, reference %+v", got, want)
					}
				}
			}
			if rootSpaces == 0 {
				t.Fatalf("no space of at least %d rectangles was exercised", rootIds)
			}
			if probedEdge == 0 {
				t.Fatal("no centre probe of an ancestor-clip or sliver space counted a rectangle")
			}
			if memoHits == 0 {
				t.Fatal("the clean-cell memo never hit")
			}
			if floor == 0 || middle == 0 || capped == 0 {
				t.Fatalf("sized grids: %d at the floor, %d between, %d at the cap; want each", floor, middle, capped)
			}
		})
	}
}

// delta returns the counters a discretize added since before (the
// counters compared are the additive ones; MaxHeapSize is the kernel's).
func delta(after, before Stats) Stats {
	return Stats{
		Discretizations: after.Discretizations - before.Discretizations,
		CleanCells:      after.CleanCells - before.CleanCells,
		DirtyCells:      after.DirtyCells - before.DirtyCells,
		PrunedCells:     after.PrunedCells - before.PrunedCells,
		MiniSweeps:      after.MiniSweeps - before.MiniSweeps,
		MiniSweepRects:  after.MiniSweepRects - before.MiniSweepRects,
		CenterProbes:    after.CenterProbes - before.CenterProbes,
	}
}

// TestCleanCellCandidateIsInsideCell: whatever point pass 1 installs as
// the incumbent must achieve the distance it was installed with. On a
// space a few ulps tall the grid's cells hold no representable point;
// their computed centres round onto cell edges — here the line y = 40
// that half of the rectangles end on — and used to be installed with the
// cell interior's distance (bench finding 1: GI-DS and DS-Search
// answering 0.3988 where the optimum is 0.2208).
func TestCleanCellCandidateIsInsideCell(t *testing.T) {
	tc := equivCases()[0]
	f := tc.composite(t)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		n := 200 + rng.Intn(200)
		objs := make([]attr.Object, n)
		for i := range objs {
			x, y := rng.Float64()*100, float64(rng.Intn(20))*5
			objs[i] = attr.Object{Loc: geom.Point{X: x, Y: y}, Values: tc.values(rng, i)}
		}
		target := make([]float64, f.Dims())
		for d := range target {
			target[d] = float64(rng.Intn(12))
		}
		s, err := NewShapeSearcher(t, &attr.Dataset{Objects: objs}, 7.5, 5, asp.Query{F: f, Target: target}, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		s.ensureScratch()
		ulp := math.Nextafter(40, 41) - 40
		space := geom.Rect{MinX: 5, MinY: 40 - 2*ulp, MaxX: 95, MaxY: 40 + float64(1+trial%5)*ulp}
		ids := s.AppendWindowIDs(space, nil)
		s.beginItem(asp.Result{Point: asp.EmptyCandidate(space), Dist: math.Inf(1), Rep: make([]float64, f.Dims())})
		s.discretize(space, space, ids)
		if math.IsInf(s.cur.Dist, 1) {
			continue
		}
		if got := s.query.Distance(s.PointRepresentation(s.cur.Point)); got != s.cur.Dist {
			t.Fatalf("trial %d: incumbent %v installed at distance %v, but the point's own distance is %v", trial, s.cur.Point, s.cur.Dist, got)
		}
	}
}
