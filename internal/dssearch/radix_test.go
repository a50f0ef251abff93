package dssearch

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"asrs/internal/attr"
	"asrs/internal/geom"
)

// comparisonOrder is the master order of objs by comparison sort over
// compareAnchors: the reference the radix sort is held to.
func comparisonOrder(objs []attr.Object) []int32 {
	keys := make([]anchorKey, len(objs))
	for i, o := range objs {
		keys[i] = anchorKey{o.Loc.X, o.Loc.Y, int32(i)}
	}
	slices.SortFunc(keys, compareAnchors)
	order := make([]int32, len(keys))
	for i, k := range keys {
		order[i] = k.i
	}
	return order
}

// CheckAnchorOrder holds both routes to the master order over objs —
// the geometry's sort and the fold's placement of a delta — to
// comparisonOrder.
func CheckAnchorOrder(tb testing.TB, name string, objs []attr.Object) {
	tb.Helper()
	want := comparisonOrder(objs)
	g := newGeometry(&attr.Dataset{Objects: objs})
	if !slices.Equal(g.order, want) {
		tb.Fatalf("%s: the geometry's order differs from compareAnchors' at %d", name, firstDiff(g.order, want))
	}
	for id, oi := range g.order {
		if math.Float64bits(g.pts[id].X) != math.Float64bits(objs[oi].Loc.X) ||
			math.Float64bits(g.pts[id].Y) != math.Float64bits(objs[oi].Loc.Y) {
			tb.Fatalf("%s: master id %d is anchored at %v, its object at %v", name, id, g.pts[id], objs[oi].Loc)
		}
	}
	empty := &Geometry{}
	for t, e := range empty.place(objs) {
		if e.row != want[t] || e.loc != objs[e.row].Loc {
			tb.Fatalf("%s: the fold places row %d %d-th, compareAnchors row %d", name, e.row, t, want[t])
		}
	}
}

func firstDiff(a, b []int32) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// at lays the points out as objects, in the order given.
func at(pts ...geom.Point) []attr.Object {
	objs := make([]attr.Object, len(pts))
	for i, p := range pts {
		objs[i].Loc = p
	}
	return objs
}

// TestRadixOrderMatchesCompareAnchors holds the radix sort of the master
// order to the comparison sort over compareAnchors: on ties, on −0 beside
// +0 (on one axis and across both), on vertical and horizontal lines, on
// denormals and ±1e308, and at n ∈ {0, 1, 2, 128}. The zoo's corpora are
// TestRadixOrderOnCorpora's.
func TestRadixOrderMatchesCompareAnchors(t *testing.T) {
	negZero := math.Copysign(0, -1)
	denorm := math.SmallestNonzeroFloat64
	rng := rand.New(rand.NewSource(41))
	random := func(n int, coord func() float64) []attr.Object {
		objs := make([]attr.Object, n)
		for i := range objs {
			objs[i].Loc = geom.Point{X: coord(), Y: coord()}
		}
		return objs
	}
	pick := func(vals ...float64) func() float64 {
		return func() float64 { return vals[rng.Intn(len(vals))] }
	}
	line := func(n int, vertical bool) []attr.Object {
		objs := make([]attr.Object, n)
		for i := range objs {
			v := float64(rng.Intn(30)) - 10
			if vertical {
				objs[i].Loc = geom.Point{X: 3, Y: v}
			} else {
				objs[i].Loc = geom.Point{X: v, Y: -3}
			}
		}
		return objs
	}
	cases := []struct {
		name string
		objs []attr.Object
	}{
		{"n=0", nil},
		{"n=1", at(geom.Point{X: 1, Y: 2})},
		{"n=2-sorted", at(geom.Point{X: 1, Y: 2}, geom.Point{X: 1, Y: 3})},
		{"n=2-reversed", at(geom.Point{X: 2, Y: 2}, geom.Point{X: 1, Y: 3})},
		{"n=2-tied", at(geom.Point{X: 1, Y: 2}, geom.Point{X: 1, Y: 2})},
		{"n=128", random(128, rng.NormFloat64)},
		{"ties", random(500, pick(-2, -1, 0, 1, 2))},
		{"zeros-x", at(geom.Point{X: 0, Y: 1}, geom.Point{X: negZero, Y: 0}, geom.Point{X: 0, Y: 0},
			geom.Point{X: negZero, Y: 1}, geom.Point{X: -1, Y: 0})},
		{"zeros-y", at(geom.Point{X: 1, Y: 0}, geom.Point{X: 1, Y: negZero}, geom.Point{X: 1, Y: -1},
			geom.Point{X: 1, Y: negZero}, geom.Point{X: 1, Y: 0})},
		{"zeros-mixed", at(geom.Point{X: 0, Y: negZero}, geom.Point{X: negZero, Y: 0}, geom.Point{X: negZero, Y: negZero},
			geom.Point{X: 0, Y: 0}, geom.Point{X: negZero, Y: 0})},
		{"zeros-random", random(300, pick(negZero, 0, denorm, -denorm, 1))},
		{"vertical-line", line(200, true)},
		{"horizontal-line", line(200, false)},
		{"denormals", random(300, pick(denorm, -denorm, 2*denorm, -3*denorm, math.Float64frombits(0x000f_ffff_ffff_ffff), 0))},
		{"extremes", random(300, pick(1e308, -1e308, math.MaxFloat64, -math.MaxFloat64, 1e-308, 0, -1))},
		{"spread", random(2000, func() float64 { return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(600)-300)) })},
	}
	for _, c := range cases {
		CheckAnchorOrder(t, c.name, c.objs)
	}
}

// TestRadixOrderSortedInput: input already in the master order is kept as
// it is, without a sort.
func TestRadixOrderSortedInput(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	objs := make([]attr.Object, 2000)
	for i := range objs {
		objs[i].Loc = geom.Point{X: float64(rng.Intn(100)), Y: rng.NormFloat64()}
	}
	order := comparisonOrder(objs)
	sorted := make([]attr.Object, len(objs))
	for i, oi := range order {
		sorted[i] = objs[oi]
	}
	got := make([]int32, len(sorted))
	if !anchorSort(sorted, got) {
		t.Fatal("sorted input was not recognized as sorted")
	}
	for i, oi := range got {
		if oi != int32(i) {
			t.Fatalf("sorted input reordered: master id %d is object %d", i, oi)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { anchorSort(sorted, got) }); allocs != 0 {
		t.Fatalf("sorted input allocated %v times", allocs)
	}
	if anchorSort(objs, got) {
		t.Fatal("unsorted input reported sorted")
	}
}

// FuzzAnchorOrder holds the radix order to compareAnchors over finite
// coordinate pairs. Each object takes 17 bytes: a control byte, then x and
// y as float64 bits. The control byte's low bits copy the previous
// object's x or y (ties) and flip the sign of x or y (−0 from +0); a
// non-finite coordinate is replaced by 0.
func FuzzAnchorOrder(f *testing.F) {
	seed := func(pts ...[3]float64) []byte {
		var b []byte
		for _, p := range pts {
			b = append(b, byte(p[0]))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p[1]))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p[2]))
		}
		return b
	}
	f.Add(seed([3]float64{0, 1, 2}, [3]float64{0, 0, 1}))
	f.Add(seed([3]float64{0, 0, 0}, [3]float64{4, 0, 0}, [3]float64{8, 0, 0}, [3]float64{12, 0, 0}))
	f.Add(seed([3]float64{0, 1e308, -1e308}, [3]float64{1, 5e-324, 3}, [3]float64{2, -5e-324, 3}, [3]float64{3, 7, 7}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var objs []attr.Object
		for len(data) >= 17 {
			ctl := data[0]
			x := math.Float64frombits(binary.LittleEndian.Uint64(data[1:]))
			y := math.Float64frombits(binary.LittleEndian.Uint64(data[9:]))
			data = data[17:]
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
			if math.IsNaN(y) || math.IsInf(y, 0) {
				y = 0
			}
			if k := len(objs); k > 0 {
				if ctl&1 != 0 {
					x = objs[k-1].Loc.X
				}
				if ctl&2 != 0 {
					y = objs[k-1].Loc.Y
				}
			}
			if ctl&4 != 0 {
				x = -x
			}
			if ctl&8 != 0 {
				y = -y
			}
			objs = append(objs, attr.Object{Loc: geom.Point{X: x, Y: y}})
		}
		CheckAnchorOrder(t, "fuzz", objs)
	})
}
