package dssearch

import (
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

// classicFacts derives a shape's facts from the reduction: the extents
// and the MBR (asp.Space) of asp.Reduce's rectangles.
func classicFacts(t *testing.T, ds *attr.Dataset, a, b float64) shapeFacts {
	t.Helper()
	rects, err := asp.Reduce(ds, a, b, asp.AnchorTR)
	if err != nil {
		t.Fatal(err)
	}
	f := shapeFacts{wmin: math.Inf(1), wmax: math.Inf(-1), hmin: math.Inf(1), hmax: math.Inf(-1), space: asp.Space(rects)}
	for _, r := range rects {
		w, h := r.Rect.Width(), r.Rect.Height()
		f.wmin, f.wmax = min(f.wmin, w), max(f.wmax, w)
		f.hmin, f.hmax = min(f.hmin, h), max(f.hmax, h)
	}
	return f
}

func sameFacts(x, y shapeFacts) bool {
	bits := func(f shapeFacts) [8]uint64 {
		vs := [8]float64{f.wmin, f.wmax, f.hmin, f.hmax, f.space.MinX, f.space.MinY, f.space.MaxX, f.space.MaxY}
		var out [8]uint64
		for i, v := range vs {
			out[i] = math.Float64bits(v)
		}
		return out
	}
	return bits(x) == bits(y)
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

// TestShapeFacts holds the pyramid's per-shape memo to the derivations
// over the reduction it replaces. On a core of one limb a channel and one
// of three-limb chains, for shapes whose translated anchors keep their
// order and — two anchors an ulp apart under an extent that absorbs the
// ulp — shapes whose anchors collapse: what a bound searcher holds
// (extents, space) equals classicFacts bit for bit; every shape binds,
// collapsing ones included; its answer is the sweep baseline's distance
// bit for bit and the pyramid-less path's point; and the second query of
// a shape derives nothing.
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
			want := classicFacts(t, ds, a, b)
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
			for round := 0; round < 2; round++ {
				before := p.geo.factsDerived
				s, err := NewRegionSearcher(ds, a, b, q, Options{Pyramid: p})
				if err != nil {
					t.Fatal(err)
				}
				if derived := p.geo.factsDerived - before; derived != 1-round {
					t.Fatalf("%s %gx%g query %d: %d derivations, want %d", kind.name, a, b, round+1, derived, 1-round)
				}
				if !s.boundTo(p) {
					t.Fatalf("%s %gx%g query %d: the pyramid did not bind", kind.name, a, b, round+1)
				}
				if !sameFacts(s.shapeFacts, want) {
					t.Fatalf("%s %gx%g query %d: searcher holds %+v, the reduction gives %+v", kind.name, a, b, round+1, s.shapeFacts, want)
				}
				memo, known := p.geo.knownFacts(shapeKey{math.Float64bits(a), math.Float64bits(b)})
				if !known || !sameFacts(memo, want) {
					t.Fatalf("%s %gx%g: memo holds %+v (known=%v), want %+v", kind.name, a, b, memo, known, want)
				}
				_, got, _, err := SolveASRS(ds, a, b, q, nil, nil, Options{Workers: 1, Pyramid: p})
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got.Dist) != math.Float64bits(wantRes.Dist) || got.Point != wantRes.Point {
					t.Fatalf("%s %gx%g query %d: %v at %v through the pyramid, %v at %v without", kind.name, a, b, round+1, got.Dist, got.Point, wantRes.Dist, wantRes.Point)
				}
			}
			if prep, ok := p.Prepare(a, b); !ok || !sameFacts(prep.facts, want) {
				t.Fatalf("%s %gx%g: Prepare ok=%v", kind.name, a, b, ok)
			}
		}
	}
}

// TestShapeFactsMemoBounded: a client that never repeats a shape cannot
// grow the memo past its bound, and what the memo forgot is derived again
// to the same values.
func TestShapeFactsMemoBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	ds, f := pyramidDataset(t, rng, 60, func() float64 { return float64(rng.Intn(5)) }, false)
	p, err := BuildPyramid(ds, f)
	if err != nil {
		t.Fatal(err)
	}
	first, ok := p.Prepare(2, 3)
	if !ok {
		t.Fatal("Prepare failed")
	}
	for i := 0; i < 3*maxShapeFacts; i++ {
		if _, ok := p.Prepare(2+float64(i+1)/16, 3); !ok {
			t.Fatal("Prepare failed")
		}
		if n := len(p.geo.facts); n > maxShapeFacts {
			t.Fatalf("memo holds %d shapes, bound %d", n, maxShapeFacts)
		}
	}
	if _, known := p.geo.knownFacts(shapeKey{math.Float64bits(2), math.Float64bits(3)}); known {
		t.Fatal("the first shape outlived three fillings of the memo")
	}
	if again, ok := p.Prepare(2, 3); !ok || !sameFacts(again.facts, first.facts) {
		t.Fatalf("re-derived facts %+v differ from the first derivation %+v", again.facts, first.facts)
	}
	if p.geo.factsDerived != 3*maxShapeFacts+2 {
		t.Fatalf("%d derivations for %d distinct bindings", p.geo.factsDerived, 3*maxShapeFacts+2)
	}
}

// TestShapeFactsFoldedEpoch: an epoch's fold is a new geometry with a
// memo of its own. An insert outside the corpus's hull grows a shape's
// space, and the folded pyramid reports the new one while the base,
// which learned the shape before the fold, keeps reporting its own. An
// insert that collapses onto a neighbour's anchor under the shape still
// binds on the next fold, and its queries answer the sweep baseline's
// distance and the pyramid-less path's point.
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
	if got, want := space(combined, folded), classicFacts(t, combined, a, b).space; got != want || got != grown {
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
	if got, want := space(again, collapsed), classicFacts(t, again, a, b).space; got != want {
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

// TestShapeFactsConcurrent binds four shapes the memo knows and four it
// does not from eight goroutines at once (run under -race): every
// searcher holds the classic derivations.
func TestShapeFactsConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	ds, f := pyramidDataset(t, rng, 120, func() float64 { return float64(rng.Intn(7)) }, false)
	p, err := BuildPyramid(ds, f)
	if err != nil {
		t.Fatal(err)
	}
	q := asp.Query{F: f, Target: make([]float64, f.Dims())}
	shapes := make([][2]float64, 8)
	want := make([]shapeFacts, len(shapes))
	for i := range shapes {
		shapes[i] = [2]float64{0.3 + 0.05*float64(i), 0.7}
		want[i] = classicFacts(t, ds, shapes[i][0], shapes[i][1])
		if i < 4 {
			if _, ok := p.Prepare(shapes[i][0], shapes[i][1]); !ok {
				t.Fatal("Prepare failed")
			}
		}
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
				if got := s.shapeFacts; !s.boundTo(p) || !sameFacts(got, want[i]) {
					t.Errorf("shape %d round %d: bound=%v, searcher holds %+v, want %+v", i, round, s.boundTo(p), got, want[i])
				}
				s.Release()
			}
		}(i)
	}
	wg.Wait()
	if p.geo.factsDerived < 8 || len(p.geo.facts) != 8 {
		t.Fatalf("%d derivations, %d shapes remembered; want at least 8 and exactly 8", p.geo.factsDerived, len(p.geo.facts))
	}
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
				if r := s.rect(int32(id)); !sameRectBits(r, asp.AnchorTR.RectFor(o.Loc, a, b)) || &s.objs[s.order[id]] != o {
					t.Fatalf("%gx%g master[%d]: %v of %p, the reduction's %v of %p", a, b, id, r, &s.objs[s.order[id]], asp.AnchorTR.RectFor(o.Loc, a, b), o)
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
