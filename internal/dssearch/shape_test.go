package dssearch

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"asrs/internal/asp"
	"asrs/internal/attr"
	"asrs/internal/geom"
	"asrs/internal/sweep"
)

// classicSpace is the space of the a×b reduction as asp.Space forms it:
// the MBR of the rectangles geom.RectFromTR(o.Loc, a, b), expanded in
// dataset order. Built by hand rather than by asp.Reduce, which refuses
// the zero extent the tests also search.
func classicSpace(ds *attr.Dataset, a, b float64) geom.Rect {
	rects := make([]asp.RectObject, len(ds.Objects))
	for i := range ds.Objects {
		rects[i] = asp.RectObject{Rect: geom.RectFromTR(ds.Objects[i].Loc, a, b), Obj: &ds.Objects[i]}
	}
	return asp.Space(rects)
}

// collapses reports whether the a×b rectangles of g's anchors, in master
// order, fall out of (MinX, MinY) order or meet at one anchor while their
// objects' locations differ: two distinct coordinates translated onto one
// float.
func collapses(g *Geometry, a, b float64) bool {
	for i := 1; i < g.n; i++ {
		p, q := geom.RectFromTR(g.pts[i-1], a, b), geom.RectFromTR(g.pts[i], a, b)
		if p.MinX > q.MinX || p.MinX == q.MinX && p.MinY > q.MinY ||
			p.MinX == q.MinX && p.MinY == q.MinY && g.pts[i-1] != g.pts[i] {
			return true
		}
	}
	return false
}

// baselineDist is the a×b answer distance of the sweep baseline, the one
// asrs.SearchBaseline computes over the whole space.
func baselineDist(t *testing.T, ds *attr.Dataset, a, b float64, q asp.Query) float64 {
	t.Helper()
	rects, err := asp.Reduce(ds, a, b, asp.AnchorTR)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := sweep.New(rects, q)
	if err != nil {
		t.Fatal(err)
	}
	return sw.Solve().Dist
}

// TestShapeFacts holds what a bound searcher reads of a shape to the
// reduction it replaces. On a core of one limb a channel and one of
// three-limb chains, for shapes whose translated anchors keep their order
// and — two anchors an ulp apart under an extent that absorbs the ulp —
// shapes whose anchors collapse: the searcher's space, read off the
// geometry's bounds, is asp.Space's bit for bit, and so is Prepare's;
// every shape binds, collapsing ones included; and its answer is the
// sweep baseline's distance bit for bit and the pyramid-less path's
// point.
func TestShapeFacts(t *testing.T) {
	rng := rand.New(rand.NewSource(2020))
	kinds := []struct {
		name  string
		num   func() float64
		chain bool
	}{
		{"one-limb", func() float64 { return float64(rng.Intn(11) - 5) }, false},
		{"three-limb", func() float64 { return spreadValue(rng) }, true},
	}
	for _, kind := range kinds {
		ds, f := pyramidDataset(t, rng, 200, kind.num, false)
		// Distinct anchors that any a ≥ 1 translates onto one float.
		ds.Objects[0].Loc = geom.Point{X: 1, Y: 3}
		ds.Objects[1].Loc = geom.Point{X: math.Nextafter(1, 2), Y: 2}
		p, err := BuildPyramid(ds, f)
		if err != nil {
			t.Fatal(err)
		}
		if chained(&p.core.limbs) != kind.chain {
			t.Fatalf("%s: core limbs %v, lo %v", kind.name, p.core.limbs.Scale, p.core.limbs.Lo)
		}
		target := make([]float64, f.Dims())
		target[0] = 3
		q := asp.Query{F: f, Target: target}
		shapes := []struct {
			a, b      float64
			collapses bool
		}{
			{0.37, 0.91, false},
			{0.5, 8, false},
			{1e-13, 1e-13, false}, // sub-ulp: zero-extent rectangles, anchors untouched
			{9, 8, true},
			{400, 400, true},
		}
		for _, sh := range shapes {
			a, b := sh.a, sh.b
			want := classicSpace(ds, a, b)
			if got := collapses(p.geo, a, b); got != sh.collapses {
				t.Fatalf("%s %gx%g: the translated anchors collapse: %v; the test wants %v", kind.name, a, b, got, sh.collapses)
			}
			_, wantRes, _, err := SolveASRS(ds, a, b, q, nil, nil, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if base := baselineDist(t, ds, a, b, q); math.Float64bits(wantRes.Dist) != math.Float64bits(base) {
				t.Fatalf("%s %gx%g: %v without the pyramid, %v by the sweep baseline", kind.name, a, b, wantRes.Dist, base)
			}
			s, err := NewRegionSearcher(ds, a, b, q, Options{Pyramid: p})
			if err != nil {
				t.Fatal(err)
			}
			if !s.boundTo(p) {
				t.Fatalf("%s %gx%g: the pyramid did not bind", kind.name, a, b)
			}
			if !sameRectBits(s.space, want) {
				t.Fatalf("%s %gx%g: searcher holds space %v, the reduction's is %v", kind.name, a, b, s.space, want)
			}
			if prep, ok := p.Prepare(a, b); !ok || !sameRectBits(prep.space, want) {
				t.Fatalf("%s %gx%g: Prepare ok=%v", kind.name, a, b, ok)
			}
			_, got, _, err := SolveASRS(ds, a, b, q, nil, nil, Options{Workers: 1, Pyramid: p})
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got.Dist) != math.Float64bits(wantRes.Dist) || got.Point != wantRes.Point {
				t.Fatalf("%s %gx%g: %v at %v through the pyramid, %v at %v without", kind.name, a, b, got.Dist, got.Point, wantRes.Dist, wantRes.Point)
			}
		}
	}
}

// TestShapeSpaceSignedZeros: a corpus whose extreme coordinates are −0
// and +0, met in dataset order in the opposite order to the master's,
// and one at ±5e−324. A searcher's space — bound to a pyramid or over a
// one-shot one, at the zero extent the tests search and at positive
// ones — is asp.Space's bit for bit, which keeps the zero the dataset
// meets first; and a corpus of no objects has the empty space.
func TestShapeSpaceSignedZeros(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ds, f := pyramidDataset(t, rng, 30, func() float64 { return float64(rng.Intn(4)) }, false)
	q := asp.Query{F: f, Target: make([]float64, f.Dims())}
	negZero := math.Copysign(0, -1)
	tiny := math.SmallestNonzeroFloat64
	for _, c := range []struct {
		name string
		low  bool // the corners are the corpus's minima, else its maxima
		pts  [4]geom.Point
	}{
		// Each extreme is −0 for the object met first in dataset order
		// and +0 for the one met first in the master's.
		{"zero-minima", true, [4]geom.Point{{X: negZero, Y: 0.5}, {X: 0, Y: 0.25}, {X: 0.5, Y: negZero}, {X: 0.25, Y: 0}}},
		{"zero-maxima", false, [4]geom.Point{{X: negZero, Y: -0.25}, {X: 0, Y: -0.5}, {X: -0.25, Y: negZero}, {X: -0.5, Y: 0}}},
		{"subnormal-minima", true, [4]geom.Point{{X: -tiny, Y: tiny}, {X: tiny, Y: -tiny}, {X: 1, Y: 1}, {X: 1, Y: 1}}},
		{"subnormal-maxima", false, [4]geom.Point{{X: tiny, Y: -tiny}, {X: -tiny, Y: tiny}, {X: -1, Y: -1}, {X: -1, Y: -1}}},
	} {
		// The rest of the corpus lies above the corners (minima) or below
		// them.
		for i := range ds.Objects {
			x, y := 1+rng.Float64()*50, 1+rng.Float64()*50
			if !c.low {
				x, y = -x, -y
			}
			ds.Objects[i].Loc = geom.Point{X: x, Y: y}
		}
		for i, pt := range c.pts {
			ds.Objects[i].Loc = pt
		}
		p, err := BuildPyramid(ds, f)
		if err != nil {
			t.Fatal(err)
		}
		for _, ab := range [][2]float64{{0, 0}, {tiny, tiny}, {1, 2.5}, {1e300, 1e300}} {
			a, b := ab[0], ab[1]
			want := classicSpace(ds, a, b)
			for _, pyr := range []*Pyramid{p, nil} {
				s, err := newSearcher(ds, a, b, q, Options{Pyramid: pyr})
				if err != nil {
					t.Fatal(err)
				}
				if !sameRectBits(s.space, want) {
					t.Fatalf("%s %gx%g pyramid=%v: space %v (bits %s), asp.Space %v (bits %s)", c.name, a, b, pyr != nil,
						s.space, rectBits(s.space), want, rectBits(want))
				}
			}
		}
	}
	s, err := NewRegionSearcher(&attr.Dataset{Schema: ds.Schema}, 2, 3, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.space; !sameRectBits(got, geom.EmptyRect()) {
		t.Fatalf("no objects: space %v, want the empty rectangle", got)
	}
}

func rectBits(r geom.Rect) string {
	return fmt.Sprintf("%x/%x/%x/%x", math.Float64bits(r.MinX), math.Float64bits(r.MinY), math.Float64bits(r.MaxX), math.Float64bits(r.MaxY))
}

// TestShapeFactsFoldedEpoch: an epoch's fold is a new geometry with
// bounds of its own. An insert outside the corpus's hull grows a shape's
// space, and the folded pyramid reports the new one while the base keeps
// reporting its own. An insert that collapses onto a neighbour's anchor
// under the shape still binds on the next fold, and its queries answer
// the sweep baseline's distance and the pyramid-less path's point.
func TestShapeFactsFoldedEpoch(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ds, f := pyramidDataset(t, rng, 40, func() float64 { return float64(rng.Intn(5)) }, false)
	xs, ys := rng.Perm(len(ds.Objects)), rng.Perm(len(ds.Objects))
	for i := range ds.Objects {
		ds.Objects[i].Loc = geom.Point{X: 2 * float64(xs[i]), Y: 2 * float64(ys[i])}
	}
	base, err := BuildPyramid(ds, f)
	if err != nil {
		t.Fatal(err)
	}
	q := asp.Query{F: f, Target: make([]float64, f.Dims())}
	const a, b = 5, 7
	space := func(ds *attr.Dataset, p *Pyramid) geom.Rect {
		s, err := NewRegionSearcher(ds, a, b, q, Options{Pyramid: p})
		if err != nil {
			t.Fatal(err)
		}
		if !s.boundTo(p) {
			t.Fatal("pyramid did not bind")
		}
		return s.space
	}
	baseSpace := geom.Rect{MinX: -a, MinY: -b, MaxX: 78, MaxY: 78}
	if got := space(ds, base); got != baseSpace {
		t.Fatalf("base space %+v, want %+v (anchors 0…78, a×b rectangles)", got, baseSpace)
	}
	insert := ds.Objects[0]
	insert.Loc = geom.Point{X: 90.25, Y: -10.5}
	combined := &attr.Dataset{Schema: ds.Schema, Objects: append(append([]attr.Object(nil), ds.Objects...), insert)}
	folded, stats, err := BuildPyramidDelta(base, combined)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Folded {
		t.Fatal("distinct anchors under an integer composite should fold")
	}
	grown := geom.Rect{MinX: -a, MinY: -10.5 - b, MaxX: 90.25, MaxY: 78}
	if got, want := space(combined, folded), classicSpace(combined, a, b); !sameRectBits(got, want) || got != grown {
		t.Fatalf("folded space %+v, classic %+v, want the insert's %+v", got, want, grown)
	}
	if got := space(ds, base); got != baseSpace {
		t.Fatalf("base space after the fold %+v, want it unchanged", got)
	}

	// x = 5e-324 translates onto the anchor of the object at x = 0
	// (5e-324 − a and −a are one float); below it, the pair is out of
	// (MinX, MinY) order.
	zero := slices.IndexFunc(ds.Objects, func(o attr.Object) bool { return o.Loc.X == 0 })
	insert.Loc = geom.Point{X: math.SmallestNonzeroFloat64, Y: ds.Objects[zero].Loc.Y - 1}
	again := &attr.Dataset{Schema: ds.Schema, Objects: append(append([]attr.Object(nil), combined.Objects...), insert)}
	collapsed, _, err := BuildPyramidDelta(folded, again)
	if err != nil {
		t.Fatal(err)
	}
	if !collapses(collapsed.geo, a, b) {
		t.Fatal("the insert does not collapse under the shape")
	}
	if got, want := space(again, collapsed), classicSpace(again, a, b); !sameRectBits(got, want) {
		t.Fatalf("collapsed space %+v, classic %+v", got, want)
	}
	_, want, _, err := SolveASRS(again, a, b, q, nil, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, got, _, err := SolveASRS(again, a, b, q, nil, nil, Options{Pyramid: collapsed})
	if err != nil {
		t.Fatal(err)
	}
	if base := baselineDist(t, again, a, b, q); math.Float64bits(got.Dist) != math.Float64bits(base) {
		t.Fatalf("%v through the collapsed pyramid, %v by the sweep baseline", got.Dist, base)
	}
	if math.Float64bits(got.Dist) != math.Float64bits(want.Dist) || got.Point != want.Point {
		t.Fatalf("%v at %v through the collapsed pyramid, %v at %v without", got.Dist, got.Point, want.Dist, want.Point)
	}
}

// TestShapeFactsConcurrent binds eight shapes to one pyramid from eight
// goroutines at once, three times each, through one SlabCache (run under
// -race): every searcher binds and holds its shape's asp.Space.
func TestShapeFactsConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	ds, f := pyramidDataset(t, rng, 120, func() float64 { return float64(rng.Intn(7)) }, false)
	p, err := BuildPyramid(ds, f)
	if err != nil {
		t.Fatal(err)
	}
	q := asp.Query{F: f, Target: make([]float64, f.Dims())}
	shapes := make([][2]float64, 8)
	want := make([]geom.Rect, len(shapes))
	for i := range shapes {
		shapes[i] = [2]float64{0.3 + 0.05*float64(i), 0.7}
		want[i] = classicSpace(ds, shapes[i][0], shapes[i][1])
	}
	slabs := &SlabCache{}
	var wg sync.WaitGroup
	for i := range shapes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				s, err := NewRegionSearcher(ds, shapes[i][0], shapes[i][1], q, Options{Pyramid: p, Slabs: slabs})
				if err != nil {
					t.Error(err)
					return
				}
				if got := s.space; !s.boundTo(p) || !sameRectBits(got, want[i]) {
					t.Errorf("shape %d round %d: bound=%v, searcher holds %v, want %v", i, round, s.boundTo(p), got, want[i])
				}
				s.Release()
			}
		}(i)
	}
	wg.Wait()
}

// TestShapeRebind: one SlabCache binds (a1, b1), then (a2, b2), then
// (a1, b1) again, and every answer is the pyramid-less path's. Each
// search hands its one slab back to the cache. After an insert and its
// fold the next binds read the new epoch: every rectangle is the
// reduction's of the new dataset's object, bit for bit, and names that
// object.
func TestShapeRebind(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, withMM := range []bool{false, true} {
		ds, f := pyramidDataset(t, rng, 300, func() float64 { return float64(rng.Intn(9)) * 0.5 }, withMM)
		p, err := BuildPyramid(ds, f)
		if err != nil {
			t.Fatal(err)
		}
		target := make([]float64, f.Dims())
		target[0] = 7
		q := asp.Query{F: f, Target: target}
		slabs := &SlabCache{}
		bind := func(ds *attr.Dataset, p *Pyramid, a, b float64) {
			t.Helper()
			s, err := NewRegionSearcher(ds, a, b, q, Options{Pyramid: p, Slabs: slabs})
			if err != nil {
				t.Fatal(err)
			}
			if !s.boundTo(p) {
				t.Fatalf("%gx%g: the pyramid did not bind", a, b)
			}
			for id := range s.pts {
				o := &ds.Objects[p.geo.order[id]]
				if r := s.rect(int32(id)); !sameRectBits(r, asp.AnchorTR.RectFor(o.Loc, a, b)) {
					t.Fatalf("%gx%g master[%d]: %v, the reduction's %v", a, b, id, r, asp.AnchorTR.RectFor(o.Loc, a, b))
				}
			}
			s.Release()
			if n := len(slabs.free); n != 1 {
				t.Fatalf("%gx%g: %d released slabs, want 1", a, b, n)
			}
			_, want, _, err := SolveASRS(ds, a, b, q, nil, nil, Options{})
			if err != nil {
				t.Fatal(err)
			}
			_, got, _, err := SolveASRS(ds, a, b, q, nil, nil, Options{Pyramid: p, Slabs: slabs})
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got.Dist) != math.Float64bits(want.Dist) || got.Point != want.Point {
				t.Fatalf("%gx%g: %v at %v through the slab, %v at %v without a pyramid", a, b, got.Dist, got.Point, want.Dist, want.Point)
			}
		}
		bind(ds, p, 6, 5)
		bind(ds, p, 2.75, 9)
		bind(ds, p, 6, 5)

		extra := make([]attr.Object, 20)
		for i := range extra {
			extra[i] = attr.Object{Loc: geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}, Values: ds.Objects[i].Values}
		}
		combined := &attr.Dataset{Schema: ds.Schema, Objects: append(append([]attr.Object(nil), ds.Objects...), extra...)}
		folded, _, err := FoldPyramid(p, FoldGeometry(p.geo, combined))
		if err != nil {
			t.Fatal(err)
		}
		bind(combined, folded, 6, 5)
		bind(combined, folded, 6, 5)
	}
}

func sameRectBits(x, y geom.Rect) bool {
	return math.Float64bits(x.MinX) == math.Float64bits(y.MinX) && math.Float64bits(x.MinY) == math.Float64bits(y.MinY) &&
		math.Float64bits(x.MaxX) == math.Float64bits(y.MaxX) && math.Float64bits(x.MaxY) == math.Float64bits(y.MaxY)
}

// TestBoundSlabRetainsNoMaster: a search's released slab keeps what its
// search needed — the grid, the sweep, id lists — and no array of the
// master, whether the search read a pyramid it was given or built its
// own: doubling the corpus grows it by less than 8 bytes an object (a
// materialized master and its MinX column took 48; a one-shot master
// laid out in the slab, with its rows, 211).
func TestBoundSlabRetainsNoMaster(t *testing.T) {
	for _, given := range []bool{true, false} {
		// The same corpora either way.
		rng := rand.New(rand.NewSource(41))
		retained := func(n int) int {
			t.Helper()
			ds, f := pyramidDataset(t, rng, n, func() float64 { return float64(rng.Intn(5)) }, false)
			var p *Pyramid
			if given {
				var err error
				if p, err = BuildPyramid(ds, f); err != nil {
					t.Fatal(err)
				}
			}
			target := make([]float64, f.Dims())
			target[0] = 7
			slabs := &SlabCache{}
			if _, _, _, err := SolveASRS(ds, 6, 5, asp.Query{F: f, Target: target}, nil, nil, Options{Pyramid: p, Slabs: slabs}); err != nil {
				t.Fatal(err)
			}
			return slabs.RetainedBytes()
		}
		const n = 4000
		small, large := retained(n), retained(2*n)
		if grown := large - small; grown >= 8*n {
			t.Fatalf("pyramid given %v: the released slab retains %d bytes at n = %d and %d at %d: %.1f bytes an added object", given, small, n, large, 2*n, float64(grown)/n)
		}
	}
}
