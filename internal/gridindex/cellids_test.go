package gridindex_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"asrs/internal/agg"
	"asrs/internal/asp"
	"asrs/internal/attr"
	"asrs/internal/dataset"
	"asrs/internal/dssearch"
	"asrs/internal/geom"
	"asrs/internal/gridindex"
)

var cellIDSchema = attr.MustSchema(attr.Attribute{Name: "v", Kind: attr.Numeric})

// cellIDDataset places n objects where loc says, each of value 1.
func cellIDDataset(n int, loc func() geom.Point) *attr.Dataset {
	objs := make([]attr.Object, n)
	for i := range objs {
		objs[i] = attr.Object{Loc: loc(), Values: []attr.Value{attr.NumValue(1)}}
	}
	return &attr.Dataset{Schema: cellIDSchema, Objects: objs}
}

// cellIDCorpora are the corpora TestCellIDsMatchWindowFilter bins:
// uniform and clustered, a lattice with duplicate locations and anchors
// on cell edges, a degenerate axis each way, negative coordinates,
// coordinates near ±1e15 (an ulp of 0.125), and Tweet with the objects
// its generator clamps onto the bounds.
func cellIDCorpora() []struct {
	name string
	ds   *attr.Dataset
} {
	rng := rand.New(rand.NewSource(44))
	return []struct {
		name string
		ds   *attr.Dataset
	}{
		{"uniform", cellIDDataset(3000, func() geom.Point { return geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100} })},
		{"singapore", dataset.SingaporeScaled(4000, 42)},
		{"lattice", cellIDDataset(3000, func() geom.Point { return geom.Point{X: float64(rng.Intn(41)), Y: float64(rng.Intn(41))} })},
		{"horizontal-line", cellIDDataset(800, func() geom.Point { return geom.Point{X: rng.Float64() * 100, Y: 3} })},
		{"vertical-line", cellIDDataset(800, func() geom.Point { return geom.Point{X: -7, Y: float64(rng.Intn(60))} })},
		{"negative", cellIDDataset(2000, func() geom.Point { return geom.Point{X: -300 + rng.Float64()*200, Y: -1e4 - rng.Float64()*50} })},
		{"near-1e15", cellIDDataset(2000, func() geom.Point {
			return geom.Point{X: 1e15 + rng.Float64()*4096, Y: -1e15 + float64(rng.Intn(300))*0.125}
		})},
		{"tweet", dataset.Tweet(3000, 7)},
	}
}

// checkCellIDs holds the ids the index hands a piece, once the searcher
// filters them, to AppendWindowIDs for the piece, id for id, behind a
// caller's prefix. It returns whether an id kept was anchored in a column
// or row only the one-cell pad of the far edges reaches.
func checkCellIDs(t testing.TB, idx *gridindex.Index, s *dssearch.Searcher, anchor func(id int32) geom.Point, a, b float64, p geom.Rect, what string) (padded bool) {
	t.Helper()
	prefix := []int32{-1, -2}
	want := s.AppendWindowIDs(p, slices.Clone(prefix))
	got, n := idx.CellIDs(s, p, a, b, slices.Clone(prefix))
	if !slices.Equal(got, want) {
		t.Fatalf("%s %v (%g×%g): the cells' ids filter to %d ids, the window to %d\ncells  %v\nwindow %v",
			what, p, a, b, len(got)-len(prefix), len(want)-len(prefix), got, want)
	}
	if n < len(got)-len(prefix) {
		t.Fatalf("%s %v: the cells held %d ids, %d were kept", what, p, n, len(got)-len(prefix))
	}
	// The column and row the open anchor box (p.MinX, p.MaxX + a) ×
	// (p.MinY, p.MaxY + b) ends in, without the pad.
	below := func(v float64) float64 { return math.Nextafter(v, math.Inf(-1)) }
	lastCol, lastRow := idx.Cell(geom.Point{X: below(p.MaxX + a), Y: below(p.MaxY + b)})
	for _, id := range got[len(prefix):] {
		if i, j := idx.Cell(anchor(id)); i > lastCol || j > lastRow {
			padded = true
		}
	}
	return padded
}

// TestCellIDsMatchWindowFilter holds the rectangle ids GI-DS collects
// from the index's cells (cellRuns, AppendCellIDs) to the plain filter
// of the piece's MinX window, on every kind of piece a session searches:
// whole cells, cells cut by the forbidden boxes of exclusions, both
// margin strips whole and cut, and pieces whose far edges lie on a
// rectangle's edge or one ulp past it — where x − a < MaxX holds for an
// anchor at fl(MaxX + a) exactly, which the one-cell pad is for. Shapes
// run from under one cell to past the bounds, on a square and an uneven
// grid.
func TestCellIDsMatchWindowFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	var strips [2]int
	for _, c := range cellIDCorpora() {
		f, err := agg.New(c.ds.Schema, agg.Spec{Kind: agg.Count})
		if err != nil {
			t.Fatal(err)
		}
		pyr, err := dssearch.BuildPyramid(c.ds, f)
		if err != nil {
			t.Fatal(err)
		}
		order := pyr.Geometry().Order()
		anchor := func(id int32) geom.Point { return c.ds.Objects[order[id]].Loc }
		q := asp.Query{F: f, Target: make([]float64, f.Dims())}
		padded := 0
		for _, g := range [][2]int{{64, 64}, {13, 9}} {
			sx, sy := g[0], g[1]
			idx, err := gridindex.New(pyr, sx, sy)
			if err != nil {
				t.Fatal(err)
			}
			bounds := idx.Bounds()
			cw, ch := bounds.Width()/float64(sx), bounds.Height()/float64(sy)
			for _, k := range [][2]float64{{0.3, 0.45}, {1, 1}, {2.5, 0.7}, {7, 3}, {1.5 * float64(sx), 1.2 * float64(sy)}} {
				a, b := k[0]*cw, k[1]*ch
				s, err := dssearch.NewRegionSearcher(c.ds, a, b, q, dssearch.Options{Pyramid: pyr})
				if err != nil {
					t.Fatal(err)
				}
				check := func(what string, p geom.Rect) {
					if checkCellIDs(t, idx, s, anchor, a, b, p, c.name+" "+what) {
						padded++
					}
				}
				// Exclusions: a×b regions at objects' locations, shifted by
				// up to a region either way.
				var excl []geom.Rect
				for i := 0; i < 3; i++ {
					o := c.ds.Objects[rng.Intn(len(c.ds.Objects))].Loc
					x, y := o.X+(rng.Float64()-0.5)*2*a, o.Y+(rng.Float64()-0.5)*2*b
					excl = append(excl, geom.Rect{MinX: x, MinY: y, MaxX: x + a, MaxY: y + b})
				}
				forbidden := dssearch.ForbiddenBoxes(excl, a, b)
				for trial := 0; trial < 120; trial++ {
					cell := idx.CellRect(rng.Intn(sx), rng.Intn(sy))
					check("cell", cell)
					for _, p := range dssearch.AppendPieces(nil, cell, forbidden) {
						check("cut cell", p)
					}
				}
				for k, m := range idx.Strips(q, a, b, s.Space()) {
					strips[k]++
					check("strip", m)
					for _, p := range dssearch.AppendPieces(nil, m, forbidden) {
						check("cut strip", p)
					}
				}
				for trial := 0; trial < 120; trial++ {
					o := anchor(int32(rng.Intn(len(order))))
					maxX, maxY := o.X-a, o.Y-b
					if trial%2 == 0 {
						maxX, maxY = math.Nextafter(maxX, math.Inf(1)), math.Nextafter(maxY, math.Inf(1))
					}
					check("rect edge", geom.Rect{MinX: maxX - rng.Float64()*2*cw, MinY: maxY - rng.Float64()*2*ch, MaxX: maxX, MaxY: maxY})
				}
				s.Release()
			}
		}
		if c.name == "lattice" && padded == 0 {
			t.Fatalf("lattice: no piece kept an id only the far edges' pad reaches")
		}
	}
	if strips[0] == 0 || strips[1] == 0 {
		t.Fatalf("margin strips searched: %d left, %d bottom", strips[0], strips[1])
	}
}

// FuzzCellIDs holds the ids the index's cells hand a piece, once
// filtered, to AppendWindowIDs over fuzzed anchors (uniform or on a
// lattice, anywhere in the float range), shapes, grids and pieces: the
// piece given, the cell its corner is binned in, and both margin strips.
// go test -run '^$' -fuzz FuzzCellIDs -fuzztime 30s ./internal/gridindex
func FuzzCellIDs(f *testing.F) {
	f.Add(int64(1), uint8(40), 0.0, 100.0, false, 2.5, 1.5, 10.0, 20.0, 5.0, 5.0, uint8(8), uint8(8))
	f.Add(int64(2), uint8(200), 1e15, 4096.0, true, 0.125, 7.0, 1e15, 1e15, 300.0, 1.0, uint8(64), uint8(3))
	f.Add(int64(3), uint8(90), -500.0, 40.0, true, 5.0, 0.3125, -480.0, -470.0, 0.0, 12.0, uint8(64), uint8(64))
	f.Add(int64(4), uint8(7), -1e300, 1e300, false, 1e299, 3e299, 0.0, -1e300, 1e300, 0.0, uint8(2), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, n uint8, origin, span float64, lattice bool, a, b, px, py, pw, ph float64, sx, sy uint8) {
		if n == 0 || sx == 0 || sy == 0 || dssearch.CheckExtent(a, b) != nil {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		coord := func() float64 {
			if lattice {
				return origin + span*float64(rng.Intn(9))/8
			}
			return origin + span*rng.Float64()
		}
		ds := cellIDDataset(int(n), func() geom.Point { return geom.Point{X: coord(), Y: coord()} })
		p := geom.Rect{MinX: px, MinY: py, MaxX: px + pw, MaxY: py + ph}
		if ds.Validate() != nil || !p.IsValid() || math.IsInf(p.MaxX, 0) || math.IsInf(p.MaxY, 0) || math.IsInf(p.MinX, 0) || math.IsInf(p.MinY, 0) {
			t.Skip()
		}
		f, err := agg.New(ds.Schema, agg.Spec{Kind: agg.Count})
		if err != nil {
			t.Fatal(err)
		}
		pyr, err := dssearch.BuildPyramid(ds, f)
		if err != nil {
			t.Skip() // values that do not certify
		}
		idx, err := gridindex.New(pyr, int(sx), int(sy))
		if err != nil {
			t.Fatal(err)
		}
		q := asp.Query{F: f, Target: make([]float64, f.Dims())}
		s, err := dssearch.NewRegionSearcher(ds, a, b, q, dssearch.Options{Pyramid: pyr})
		if err != nil {
			t.Skip()
		}
		defer s.Release()
		order := pyr.Geometry().Order()
		anchor := func(id int32) geom.Point { return ds.Objects[order[id]].Loc }
		checkCellIDs(t, idx, s, anchor, a, b, p, "piece")
		checkCellIDs(t, idx, s, anchor, a, b, idx.CellRect(idx.Cell(geom.Point{X: px, Y: py})), "cell")
		for _, m := range idx.Strips(q, a, b, s.Space()) {
			checkCellIDs(t, idx, s, anchor, a, b, m, "strip")
		}
	})
}
