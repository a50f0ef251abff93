package dssearch_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"asrs/internal/agg"
	"asrs/internal/asp"
	"asrs/internal/attr"
	"asrs/internal/dataset"
	"asrs/internal/dssearch"
	"asrs/internal/geom"
)

// joinSlabs splits ds at the ascending cuts into x-slabs — slab k holds
// the objects with cuts[k−1] ≤ x < cuts[k], in dataset order, as a shard
// catalog owns them — and builds each slab's pyramid for f.
func joinSlabs(t *testing.T, ds *attr.Dataset, f *agg.Composite, cuts []float64) ([]*attr.Dataset, []*dssearch.Pyramid) {
	t.Helper()
	slabs := make([]*attr.Dataset, len(cuts)+1)
	for k := range slabs {
		slabs[k] = &attr.Dataset{Schema: ds.Schema}
	}
	for _, o := range ds.Objects {
		k := sort.Search(len(cuts), func(k int) bool { return o.Loc.X < cuts[k] })
		slabs[k].Objects = append(slabs[k].Objects, o)
	}
	ps := make([]*dssearch.Pyramid, len(slabs))
	for k, s := range slabs {
		p, err := dssearch.BuildPyramid(s, f)
		if err != nil {
			t.Fatal(err)
		}
		ps[k] = p
	}
	return slabs, ps
}

// gatherInX is the join's oracle corpus: the slabs' objects with x
// strictly inside (lo, hi), in the master order (x, then y, then the
// slab-concatenated index).
func gatherInX(slabs []*attr.Dataset, lo, hi float64) *attr.Dataset {
	var objs []attr.Object
	for _, s := range slabs {
		for _, o := range s.Objects {
			if lo < o.Loc.X && o.Loc.X < hi {
				objs = append(objs, o)
			}
		}
	}
	sort.SliceStable(objs, func(i, j int) bool {
		a, b := objs[i].Loc, objs[j].Loc
		return a.X < b.X || a.X == b.X && a.Y < b.Y
	})
	return &attr.Dataset{Schema: slabs[0].Schema, Objects: objs}
}

// TestJoinPyramidsMatchesBuild holds JoinPyramids to BuildPyramid over
// the same gathered objects: the same corpus, location bits included;
// rows equal where both cores are in one layout; and every search —
// whole space and a window — answering the same distance, point and
// representation bits. Each case pins which core the join took: the
// shards' rows copied, or built on the joined geometry.
func TestJoinPyramidsMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	// random draws n objects over [0, 100)², object i of value val(i, x)
	// at x.
	random := func(n int, val func(i int, x float64) float64) *attr.Dataset {
		ds := dataset.Random(n, 100, rng.Int63())
		for i := range ds.Objects {
			o := &ds.Objects[i]
			o.Values[1] = attr.NumValue(val(i, o.Loc.X))
		}
		return ds
	}
	sumOf := func(ds *attr.Dataset, kinds ...agg.Kind) *agg.Composite {
		var specs []agg.Spec
		for _, k := range kinds {
			specs = append(specs, agg.Spec{Kind: k, Attr: "val"})
		}
		return agg.MustNew(ds.Schema, append(specs, agg.Spec{Kind: agg.Distribution, Attr: "cat"})...)
	}
	// mirrored lays the same value sequence over each slab of the cuts
	// 25, 50, 75 — object i in slab i mod 4, of value val(i/4) — so the
	// slabs certify one layout.
	mirrored := func(perSlab int, val func(i int) float64) *attr.Dataset {
		ds := random(4*perSlab, func(i int, _ float64) float64 { return val(i / 4) })
		for i := range ds.Objects {
			ds.Objects[i].Loc.X = 25*float64(i%4) + 25*rng.Float64()
		}
		return ds
	}
	// A window, and whether its join copies the slabs' rows.
	type window struct {
		lo, hi float64
		copied bool
	}
	cases := []struct {
		name    string
		ds      *attr.Dataset
		f       func(*attr.Dataset) *agg.Composite
		cuts    []float64
		windows []window
	}{
		{
			name: "integer-tweet-day",
			ds:   dataset.Tweet(900, 51),
			f: func(ds *attr.Dataset) *agg.Composite {
				return agg.MustNew(ds.Schema, agg.Spec{Kind: agg.Distribution, Attr: "day"}, agg.Spec{Kind: agg.Count})
			},
			cuts:    []float64{-110, -97, -85},
			windows: []window{{-112, -95, true}, {-100, -80, true}, {-125, -60, true}},
		},
		{
			name: "two-limb-sum",
			ds:   mirrored(150, func(i int) float64 { return float64(1+i%97) * 0.1 }),
			f:    func(ds *attr.Dataset) *agg.Composite { return sumOf(ds, agg.Sum, agg.Average) },
			cuts: []float64{25, 50, 75},
			// Each slab's hi limbs fill at least a quarter of their
			// headroom: four slabs' whole rows overflow it.
			windows: []window{{20, 30, true}, {40, 80, true}, {-1, 101, false}},
		},
		{
			name: "three-limb-chains",
			ds: random(400, func(int, float64) float64 {
				return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(25)-12))
			}),
			f:       func(ds *attr.Dataset) *agg.Composite { return sumOf(ds, agg.Sum, agg.Average) },
			cuts:    []float64{25, 50, 75},
			windows: []window{{20, 30, false}, {10, 90, false}},
		},
		{
			// Decimals a thousand times larger right of the cut: the slabs'
			// hi limbs take different grids, the finer one first.
			name:    "unequal-layouts/fine-first",
			ds:      random(400, func(i int, x float64) float64 { return float64(1+i%97) * leftRight(x, 0.1, 100) }),
			f:       func(ds *attr.Dataset) *agg.Composite { return sumOf(ds, agg.Sum) },
			cuts:    []float64{50},
			windows: []window{{40, 60, false}, {10, 45, true}},
		},
		{
			// The coarser grid first: the finer slab's rows keep the
			// coarser layout's headroom, so only the layouts tell them
			// apart.
			name:    "unequal-layouts/coarse-first",
			ds:      random(400, func(i int, x float64) float64 { return float64(1+i%97) * leftRight(x, 100, 0.1) }),
			f:       func(ds *attr.Dataset) *agg.Composite { return sumOf(ds, agg.Sum) },
			cuts:    []float64{50},
			windows: []window{{40, 60, false}, {55, 90, true}},
		},
		{
			// One limb a shard, within its headroom; four together overflow it.
			name:    "headroom-exceeded",
			ds:      mirrored(3, func(i int) float64 { return 0x1p50 + float64(2*i+1) }),
			f:       func(ds *attr.Dataset) *agg.Composite { return sumOf(ds, agg.Sum) },
			cuts:    []float64{25, 50, 75},
			windows: []window{{-1, 101, false}, {20, 30, true}},
		},
	}
	for _, c := range cases {
		f := c.f(c.ds)
		for _, w := range c.windows {
			t.Run(fmt.Sprintf("%s/(%g,%g)", c.name, w.lo, w.hi), func(t *testing.T) {
				slabs, ps := joinSlabs(t, c.ds, f, c.cuts)
				checkJoin(t, slabs, ps, f, w.lo, w.hi, w.copied)
			})
		}
	}

	t.Run("empty-run-and-edges", func(t *testing.T) {
		// Cuts at 0 and 50: ±0 both land in the slab [0, 50), and the
		// window edges and a cut carry anchors of their own. The slab [50,
		// 70) holds nothing inside the window (55, 100): an empty run.
		ds := dataset.Random(240, 100, 52)
		for i, x := range []float64{math.Copysign(0, -1), 0, 0, math.Copysign(0, -1), -5, 20, 20, 50, 50, 70, 70, 55, 100} {
			ds.Objects = append(ds.Objects, attr.Object{
				Loc:    geom.Point{X: x, Y: float64(10 + 7*i%80)},
				Values: []attr.Value{attr.CatValue(i % 3), attr.NumValue(float64(i) - 6)},
			})
		}
		kept := ds.Objects[:0]
		for i, o := range ds.Objects {
			if !(50 < o.Loc.X && o.Loc.X < 70) || o.Loc.X == 55 {
				o.Values[1] = attr.NumValue(float64(i%11 - 5))
				kept = append(kept, o)
			}
		}
		ds.Objects = kept
		f := agg.MustNew(ds.Schema, agg.Spec{Kind: agg.Distribution, Attr: "cat"}, agg.Spec{Kind: agg.Sum, Attr: "val"})
		slabs, ps := joinSlabs(t, ds, f, []float64{0, 50, 70})
		for _, w := range [][2]float64{{-5, 20}, {math.Copysign(0, -1), 50}, {0, 70}, {-1, 1}, {55, 100}, {20, 55}} {
			checkJoin(t, slabs, ps, f, w[0], w[1], true)
		}
	})
}

// leftRight is l left of x = 50 and r right of it.
func leftRight(x, l, r float64) float64 {
	if x < 50 {
		return l
	}
	return r
}

// checkJoin joins ps over (lo, hi) and holds the result to BuildPyramid
// over the gathered objects (see TestJoinPyramidsMatchesBuild).
func checkJoin(t *testing.T, slabs []*attr.Dataset, ps []*dssearch.Pyramid, f *agg.Composite, lo, hi float64, copied bool) {
	t.Helper()
	jds, jp, gotCopied, err := dssearch.JoinPyramids(ps, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if gotCopied != copied {
		t.Fatalf("(%g, %g): copied %v, want %v", lo, hi, gotCopied, copied)
	}
	gds := gatherInX(slabs, lo, hi)
	if len(jds.Objects) != len(gds.Objects) {
		t.Fatalf("(%g, %g): joined %d objects, gathered %d", lo, hi, len(jds.Objects), len(gds.Objects))
	}
	for i := range gds.Objects {
		j, g := &jds.Objects[i], &gds.Objects[i]
		if math.Float64bits(j.Loc.X) != math.Float64bits(g.Loc.X) || math.Float64bits(j.Loc.Y) != math.Float64bits(g.Loc.Y) || !slices.Equal(j.Values, g.Values) {
			t.Fatalf("(%g, %g) object %d: joined %v, gathered %v", lo, hi, i, *j, *g)
		}
	}
	if len(gds.Objects) == 0 {
		return
	}
	wp, err := dssearch.BuildPyramid(gds, f)
	if err != nil {
		t.Fatal(err)
	}
	if jb, wb := jp.Geometry().Bounds(), wp.Geometry().Bounds(); !sameBitsRep([]float64{jb.MinX, jb.MinY, jb.MaxX, jb.MaxY}, []float64{wb.MinX, wb.MinY, wb.MaxX, wb.MaxY}) {
		t.Fatalf("(%g, %g): joined bounds %v, built %v", lo, hi, jb, wb)
	}
	jl, wl := jp.Limbs(), wp.Limbs()
	if jl.SameLayout(&wl) {
		type row struct {
			c  []agg.Contrib
			mm []agg.MMContrib
		}
		var want []row
		wp.EachRow(func(_ geom.Point, c []agg.Contrib, mm []agg.MMContrib) { want = append(want, row{c, mm}) })
		id := 0
		jp.EachRow(func(_ geom.Point, c []agg.Contrib, mm []agg.MMContrib) {
			if !slices.Equal(c, want[id].c) || !slices.Equal(mm, want[id].mm) {
				t.Fatalf("(%g, %g) row %d: joined %v %v, built %v %v", lo, hi, id, c, mm, want[id].c, want[id].mm)
			}
			id++
		})
	}
	b := jp.Geometry().Bounds()
	within := geom.Rect{MinX: b.MinX + b.Width()/4, MinY: b.MinY, MaxX: b.MaxX - b.Width()/4, MaxY: b.MaxY}
	rng := rand.New(rand.NewSource(int64(len(gds.Objects))))
	for trial := 0; trial < 6; trial++ {
		a, h := b.Width()/float64(4+trial), b.Height()/float64(3+trial)
		if a == 0 {
			a = 1
		}
		if h == 0 {
			h = 1
		}
		target := make([]float64, f.Dims())
		for i := range target {
			target[i] = float64(rng.Intn(6))
		}
		q := asp.Query{F: f, Target: target}
		for _, win := range []*geom.Rect{nil, &within} {
			_, got, _, gerr := dssearch.SolveASRS(jds, a, h, q, win, nil, dssearch.Options{Pyramid: jp})
			_, want, _, werr := dssearch.SolveASRS(gds, a, h, q, win, nil, dssearch.Options{Pyramid: wp})
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("(%g, %g) %gx%g: joined err %v, built err %v", lo, hi, a, h, gerr, werr)
			}
			if gerr != nil {
				continue
			}
			if math.Float64bits(got.Dist) != math.Float64bits(want.Dist) ||
				math.Float64bits(got.Point.X) != math.Float64bits(want.Point.X) ||
				math.Float64bits(got.Point.Y) != math.Float64bits(want.Point.Y) || !sameBitsRep(got.Rep, want.Rep) {
				t.Fatalf("(%g, %g) %gx%g within %v: joined %v at %v rep %v, built %v at %v rep %v",
					lo, hi, a, h, win, got.Dist, got.Point, got.Rep, want.Dist, want.Point, want.Rep)
			}
		}
	}
}

// sameBitsRep compares two representations bit for bit.
func sameBitsRep(x, y []float64) bool {
	return slices.EqualFunc(x, y, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) })
}
