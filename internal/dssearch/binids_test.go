package dssearch

import (
	"math/rand"
	"slices"
	"testing"

	"asrs/internal/asp"
	"asrs/internal/geom"
)

// TestBinIDsMatchWindowFilter holds the bin path of AppendWindowIDs to the
// plain filter of the space's MinX window: the same ids, ascending, each
// once. The corpus is large enough for the bin path to engage, and the
// test asserts that it did for every kind of space: GI-DS-cell-sized
// spaces, spaces whose edges lie on rectangle edges and on bin borders
// (translated into the query's anchors), and zero-width spaces; windows
// hold hundreds of ids, so the bitmap's words fill and its scan crosses
// word boundaries.
func TestBinIDsMatchWindowFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	ds, f := pyramidDataset(t, rng, 6000, func() float64 { return float64(rng.Intn(5)) }, false)
	p, err := BuildPyramid(ds, f)
	if err != nil {
		t.Fatal(err)
	}
	const a, b = 2.5, 1.5
	s, err := NewRegionSearcher(ds, a, b, asp.Query{F: f, Target: make([]float64, f.Dims())}, Options{Pyramid: p})
	if err != nil {
		t.Fatal(err)
	}
	if s.tab.pyr != p || s.tab.lvl != p.geo.lvl {
		t.Fatal("the pyramid did not bind its level")
	}
	tab, master := s.tab, s.rects
	filter := func(space geom.Rect, lo, hi int) []int32 {
		var out []int32
		for i := lo; i < hi; i++ {
			r := &master[i].Rect
			if r.MinX < space.MaxX && space.MinX < r.MaxX && r.MinY < space.MaxY && space.MinY < r.MaxY {
				out = append(out, int32(i))
			}
		}
		return out
	}
	var engaged, words int
	check := func(kind string, space geom.Rect) {
		t.Helper()
		lo, hi := tab.window(space.MinX, space.MaxX)
		want := filter(space, lo, hi)
		got, ok := s.appendBinIDs(space, nil, lo, hi)
		if !ok {
			return
		}
		engaged++
		if !slices.Equal(got, want) {
			t.Fatalf("%s %v: the bins collect %d ids, the window filter %d\nbins   %v\nfilter %v", kind, space, len(got), len(want), got, want)
		}
		if all := s.AppendWindowIDs(space, []int32{-1}); !slices.Equal(all[1:], want) || all[0] != -1 {
			t.Fatalf("%s %v: AppendWindowIDs appends %v, want %v after the caller's prefix", kind, space, all, want)
		}
		if len(want) > 0 && (want[0]>>6) != (want[len(want)-1]>>6) {
			words++
		}
	}
	space := s.Space()
	for _, kind := range []string{"cell", "rect edges", "bin borders", "zero width"} {
		engaged, words = 0, 0
		for trial := 0; trial < 200; trial++ {
			x := space.MinX + rng.Float64()*space.Width()
			y := space.MinY + rng.Float64()*space.Height()
			var r geom.Rect
			switch kind {
			case "cell":
				r = geom.Rect{MinX: x, MinY: y, MaxX: x + 0.5 + rng.Float64(), MaxY: y + 0.5 + rng.Float64()}
			case "rect edges":
				// Lattice objects put rectangle edges on multiples of 5 and
				// on those less (a, b).
				x0, y0 := 5*float64(rng.Intn(20)), 5*float64(rng.Intn(20))
				r = geom.Rect{MinX: x0, MinY: y0, MaxX: x0 + 5 - a, MaxY: y0 + 5 - b}
			case "bin borders":
				l := tab.lvl
				k, m := rng.Intn(l.gx), rng.Intn(l.gy)
				x0 := l.bx0 + float64(k)*l.bw - a + tab.wmax
				y0 := l.by0 + float64(m)*l.bh - b + tab.hmax
				r = geom.Rect{MinX: x0, MinY: y0, MaxX: l.bx0 + float64(k+1)*l.bw - a, MaxY: l.by0 + float64(m+1)*l.bh - b}
				if !r.IsValid() {
					r = geom.Rect{MinX: x0, MinY: y0, MaxX: x0, MaxY: y0}
				}
			case "zero width":
				r = geom.Rect{MinX: x, MinY: y, MaxX: x, MaxY: y + rng.Float64()}
			}
			check(kind, r)
		}
		if engaged < 20 {
			t.Fatalf("%s: the bin path engaged on %d of 200 spaces", kind, engaged)
		}
		if words == 0 {
			t.Fatalf("%s: no space's ids spanned two bitmap words", kind)
		}
	}
}
