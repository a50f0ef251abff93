package dssearch

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"asrs/internal/agg"
	"asrs/internal/asp"
	"asrs/internal/attr"
	"asrs/internal/geom"
)

// uniqueLocs re-draws every object location from the continuous square,
// making anchor ties (practically) impossible.
func uniqueLocs(rng *rand.Rand, ds *attr.Dataset) {
	for i := range ds.Objects {
		ds.Objects[i].Loc = geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
}

// TestDeltaFoldBitIdentical is the delta-pyramid property test: for
// every composite kind the pyramid tests cover (integer-exact, dyadic,
// decimal two-limb, min/max, three-limb chains), over several seeds and
// split points, a pyramid produced by folding the appended tail into the
// prefix pyramid answers bit-identically — region, distance, point and
// representation — to a from-scratch rebuild over the combined dataset
// AND to the unassisted oracle, and is the rebuild's structurally
// (assertSoundPyramid). The fold must take place for every composite,
// anchor ties included.
func TestDeltaFoldBitIdentical(t *testing.T) {
	for _, seed := range []int64{7, 1801, 90210} {
		rng := rand.New(rand.NewSource(seed))
		kinds := []struct {
			name   string
			num    func() float64
			withMM bool
			snap   bool // keep the lattice-snapped (tied) locations
		}{
			{"integer", func() float64 { return float64(rng.Intn(11) - 5) }, false, false},
			{"dyadic", func() float64 { return float64(rng.Intn(41)) * 0.25 }, false, false},
			{"decimal", func() float64 { return 0.1 * float64(1+rng.Intn(99)) }, false, false},
			{"minmax", func() float64 { return float64(rng.Intn(2001)) * 0.5 }, true, false},
			{"three-limb", func() float64 { return spreadValue(rng) }, true, false},
			// Lattice-snapped locations carry anchor ties, which the
			// fold orders as the rebuild does: by dataset index.
			{"decimal_ties", func() float64 { return 0.1 * float64(1+rng.Intn(99)) }, false, true},
		}
		for _, kind := range kinds {
			n := 150 + rng.Intn(200)
			ds, f := pyramidDataset(t, rng, n, kind.num, kind.withMM)
			if !kind.snap {
				uniqueLocs(rng, ds)
			}
			for _, k := range []int{n, n - 1, n / 2, n / 4} {
				prefix := &attr.Dataset{Schema: ds.Schema, Objects: ds.Objects[:k]}
				base, err := BuildPyramid(prefix, f)
				if err != nil {
					t.Fatalf("%s/%d k=%d: base: %v", kind.name, seed, k, err)
				}
				folded, stats, err := BuildPyramidDelta(base, ds)
				if err != nil {
					t.Fatalf("%s/%d k=%d: delta: %v", kind.name, seed, k, err)
				}
				if !stats.Folded {
					t.Fatalf("%s/%d k=%d: the delta did not fold", kind.name, seed, k)
				}
				rebuilt, err := BuildPyramid(ds, f)
				if err != nil {
					t.Fatalf("%s/%d k=%d: rebuild: %v", kind.name, seed, k, err)
				}
				assertSoundPyramid(t, fmt.Sprintf("%s/%d k=%d", kind.name, seed, k), folded, rebuilt)
				// A composite's core folds onto any geometry of the
				// combined dataset, not only the one folded from its base's.
				onBuilt, stats, err := FoldPyramid(base, rebuilt.geo)
				if err != nil || !stats.Folded {
					t.Fatalf("%s/%d k=%d: fold onto the rebuilt geometry: folded=%v, err %v", kind.name, seed, k, stats.Folded, err)
				}
				assertSoundPyramid(t, fmt.Sprintf("%s/%d k=%d on the rebuilt geometry", kind.name, seed, k), onBuilt, rebuilt)

				target := make([]float64, f.Dims())
				for i := range target {
					target[i] = float64(2 + i)
				}
				for _, ab := range [][2]float64{{9, 8}, {0.37, 0.91}, {400, 400}} {
					a, b := ab[0], ab[1]
					_, oracle := solvePyr(t, ds, f, a, b, target, nil)
					wantRegion, want := solvePyr(t, ds, f, a, b, target, rebuilt)
					if math.Float64bits(want.Dist) != math.Float64bits(oracle.Dist) {
						t.Fatalf("%s/%d k=%d a=%g b=%g: rebuild disagrees with oracle: %v != %v",
							kind.name, seed, k, a, b, want.Dist, oracle.Dist)
					}
					gotRegion, got := solvePyr(t, ds, f, a, b, target, folded)
					if gotRegion != wantRegion || got.Dist != want.Dist || got.Point != want.Point {
						t.Fatalf("%s/%d k=%d a=%g b=%g: folded %v@%v (region %v), rebuild %v@%v (region %v)",
							kind.name, seed, k, a, b, got.Dist, got.Point, gotRegion,
							want.Dist, want.Point, wantRegion)
					}
					for i := range want.Rep {
						if math.Float64bits(got.Rep[i]) != math.Float64bits(want.Rep[i]) {
							t.Fatalf("%s/%d k=%d a=%g b=%g: rep[%d] %v != %v",
								kind.name, seed, k, a, b, i, got.Rep[i], want.Rep[i])
						}
					}
				}
			}
		}
	}
}

// TestDeltaFoldRejectsMismatch pins the precondition checks: a moved
// prefix object, a shrunken dataset, and a foreign schema are refused.
func TestDeltaFoldRejectsMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ds, f := pyramidDataset(t, rng, 120, func() float64 { return float64(rng.Intn(7)) }, false)
	prefix := &attr.Dataset{Schema: ds.Schema, Objects: ds.Objects[:80]}
	base, err := BuildPyramid(prefix, f)
	if err != nil {
		t.Fatal(err)
	}

	shrunk := &attr.Dataset{Schema: ds.Schema, Objects: ds.Objects[:40]}
	if _, _, err := BuildPyramidDelta(base, shrunk); err == nil {
		t.Fatal("shrunken dataset accepted")
	}

	moved := &attr.Dataset{Schema: ds.Schema, Objects: append([]attr.Object(nil), ds.Objects...)}
	moved.Objects[3].Loc.X += 0.5
	if _, _, err := BuildPyramidDelta(base, moved); err == nil {
		t.Fatal("moved prefix object accepted")
	}

	other, _ := pyramidDataset(t, rng, 120, func() float64 { return 1 }, false)
	if _, _, err := BuildPyramidDelta(base, other); err == nil {
		t.Fatal("foreign schema accepted")
	}
}

// assertSameAnswers pins a folded pyramid against the rebuild and the
// unassisted oracle for one query extent: region, point and the bits of
// distance and representation.
func assertSameAnswers(t *testing.T, tag string, ds *attr.Dataset, f *agg.Composite, a, b float64, folded, rebuilt *Pyramid) {
	t.Helper()
	target := make([]float64, f.Dims())
	for i := range target {
		target[i] = float64(2 + i)
	}
	oracleRegion, oracle := solvePyr(t, ds, f, a, b, target, nil)
	wantRegion, want := solvePyr(t, ds, f, a, b, target, rebuilt)
	same := func(who string, gotRegion geom.Rect, got asp.Result, wantRegion geom.Rect, want asp.Result) {
		t.Helper()
		if gotRegion != wantRegion || got.Point != want.Point ||
			math.Float64bits(got.Dist) != math.Float64bits(want.Dist) {
			t.Fatalf("%s a=%g b=%g: %s answered %v@%v (region %v), want %v@%v (region %v)",
				tag, a, b, who, got.Dist, got.Point, gotRegion, want.Dist, want.Point, wantRegion)
		}
		for i := range want.Rep {
			if math.Float64bits(got.Rep[i]) != math.Float64bits(want.Rep[i]) {
				t.Fatalf("%s a=%g b=%g: %s rep[%d] %v != %v", tag, a, b, who, i, got.Rep[i], want.Rep[i])
			}
		}
	}
	same("rebuild vs oracle", wantRegion, want, oracleRegion, oracle)
	gotRegion, got := solvePyr(t, ds, f, a, b, target, folded)
	same("folded", gotRegion, got, wantRegion, want)
}

// TestDeltaFoldChain folds 72 deltas of 1–128 objects one onto the
// other — the pyramid of epoch k is only ever the fold of epoch k-1's,
// as in a serving engine — and pins every epoch against a from-scratch
// rebuild and the unassisted oracle. Scripted deltas cover the edges of
// the splice: anchors below master position 0 and above n-1, outside the
// base's hull on both axes, a value that moves a channel's grid (the
// slow lane: the core built again on the folded geometry), an anchor tie
// (placed after the base's object, as the rebuild orders it) and two
// values that spread the channel over a chain of three limbs (the slow
// lane again). Every delta folds, and every epoch's anchors, order and
// core are the rebuild's (assertSoundPyramid).
func TestDeltaFoldChain(t *testing.T) {
	const stepBelow, stepAbove = 5, 9 // anchors outside the hull
	var (
		stepShift  = 21 // a value finer than the channel's grid
		stepSpread = 64 // a value 1e12 large, then one 1e-12 small
		steps      = 72
	)
	if testing.Short() {
		// The same script over a third of the folds: under -race the full
		// chain takes over a minute, nearly all of it in the per-epoch
		// rebuilds and soundness checks the detector has nothing to see in.
		stepShift, stepSpread, steps = 13, 16, 24
	}
	kinds := []struct {
		name   string
		num    func(*rand.Rand) float64
		withMM bool
		finer  float64 // a value below the resolution of every other
	}{
		{"integer", func(r *rand.Rand) float64 { return float64(r.Intn(11) - 5) }, false, 1.0 / 1024},
		{"decimal", func(r *rand.Rand) float64 { return 0.1 * float64(1+r.Intn(99)) }, false, 0.1 / 16},
		{"minmax", func(r *rand.Rand) float64 { return float64(r.Intn(2001)) * 0.5 }, true, 1.0 / 1024},
	}
	extents := [][2]float64{{3, 2.5}, {0.37, 0.91}, {400, 400}}
	for _, kind := range kinds {
		rng := rand.New(rand.NewSource(20260927))
		seed, f := pyramidDataset(t, rng, 120, func() float64 { return kind.num(rng) }, kind.withMM)
		uniqueLocs(rng, seed)
		cur, err := BuildPyramid(seed, f)
		if err != nil {
			t.Fatal(err)
		}
		objs := seed.Objects
		for step := 0; step < steps; step++ {
			d := 1 + rng.Intn(6)
			if step%6 == 3 {
				d = 1 + rng.Intn(128)
			}
			delta := make([]attr.Object, d)
			for i := range delta {
				delta[i] = attr.Object{
					Loc:    geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100},
					Values: []attr.Value{{Cat: rng.Intn(3)}, {Num: kind.num(rng)}},
				}
			}
			// An existing location again, folded in.
			stepTie := stepSpread - 4
			switch step {
			case stepBelow:
				delta[0].Loc = geom.Point{X: -40, Y: 130}
			case stepAbove:
				delta[0].Loc = geom.Point{X: 170, Y: -25}
			case stepTie:
				delta[0].Loc = objs[17].Loc
			case stepShift:
				delta[0].Values[1].Num = kind.finer
			case stepSpread:
				delta[0].Values[1].Num = math.Pi * 1e12
			case stepSpread + 1:
				delta[0].Values[1].Num = math.Pi * 1e-12
			}
			combined := &attr.Dataset{Schema: seed.Schema, Objects: append(append([]attr.Object(nil), objs...), delta...)}
			tag := fmt.Sprintf("%s step %d (n=%d, d=%d)", kind.name, step, len(objs), d)

			next, stats, err := BuildPyramidDelta(cur, combined)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			if !stats.Folded || stats.Appended != d {
				t.Fatalf("%s: Folded=%v Appended=%d, want a fold of %d", tag, stats.Folded, stats.Appended, d)
			}
			if step > stepSpread && !chained(&next.core.limbs) {
				t.Fatalf("%s: limbs %v, lo %v: no chain of three", tag, next.core.limbs.Scale, next.core.limbs.Lo)
			}
			rebuilt, err := BuildPyramid(combined, f)
			if err != nil {
				t.Fatalf("%s: rebuild: %v", tag, err)
			}
			ab := extents[step%len(extents)]
			assertSameAnswers(t, tag, combined, f, ab[0], ab[1], next, rebuilt)
			assertSoundPyramid(t, tag, next, rebuilt)
			cur, objs = next, combined.Objects
		}
	}
}

// TestDeltaFoldLeavesBaseAlone runs epoch-k queries on a pyramid while
// two epoch-k+1 folds splice copies of it: under -race any write to the
// shared base is a failure, and the queries' answers must not move.
func TestDeltaFoldLeavesBaseAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ds, f := pyramidDataset(t, rng, 600, func() float64 { return 0.1 * float64(1+rng.Intn(99)) }, true)
	uniqueLocs(rng, ds)
	base, err := BuildPyramid(ds, f)
	if err != nil {
		t.Fatal(err)
	}
	target := make([]float64, f.Dims())
	target[0] = 40
	_, want := solvePyr(t, ds, f, 9, 8, target, base)

	combined := &attr.Dataset{Schema: ds.Schema, Objects: append([]attr.Object(nil), ds.Objects...)}
	for i := 0; i < 40; i++ {
		combined.Objects = append(combined.Objects, attr.Object{
			Loc:    geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100},
			Values: []attr.Value{{Cat: rng.Intn(3)}, {Num: 0.1 * float64(1+rng.Intn(99))}},
		})
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if _, stats, err := BuildPyramidDelta(base, combined); err != nil || !stats.Folded {
					t.Errorf("fold: Folded=%v err=%v", stats != nil && stats.Folded, err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			q := asp.Query{F: f, Target: target}
			for i := 0; i < 4; i++ {
				_, got, _, err := SolveASRS(ds, 9, 8, q, nil, nil, Options{Workers: 2, Pyramid: base})
				if err != nil || math.Float64bits(got.Dist) != math.Float64bits(want.Dist) || got.Point != want.Point {
					t.Errorf("query during fold: %v@%v (err %v), want %v@%v", got.Dist, got.Point, err, want.Dist, want.Point)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// assertSoundPyramid checks a folded pyramid structurally — answers
// alone let a stale row or anchor slip through whenever the search
// happens not to lean on it. The limbs, the core, the order and the
// anchors must be the rebuild's, ties included: both order them by
// dataset index.
func assertSoundPyramid(t *testing.T, tag string, pyr, rebuilt *Pyramid) {
	t.Helper()
	c, r := pyr.core, rebuilt.core
	if !slices.Equal(c.limbs.Scale, r.limbs.Scale) || !slices.Equal(c.limbs.Inv, r.limbs.Inv) ||
		!slices.Equal(c.limbs.Lo, r.limbs.Lo) {
		t.Fatalf("%s: folded limbs %v differ from the rebuild's %v", tag, c.limbs.Scale, r.limbs.Scale)
	}
	p := pyr.geo
	if !slices.Equal(p.order, rebuilt.geo.order) {
		t.Fatalf("%s: folded order differs from the rebuild's", tag)
	}
	if !slices.EqualFunc(p.pts, rebuilt.geo.pts, func(x, y geom.Point) bool {
		return math.Float64bits(x.X) == math.Float64bits(y.X) && math.Float64bits(x.Y) == math.Float64bits(y.Y)
	}) {
		t.Fatalf("%s: folded anchors differ from the rebuild's", tag)
	}
	if !slices.Equal(c.cOff, r.cOff) || !slices.Equal(c.contribs, r.contribs) ||
		!slices.Equal(c.mOff, r.mOff) || !slices.Equal(c.mms, r.mms) {
		t.Fatalf("%s: folded core differs from the rebuild's", tag)
	}
}
