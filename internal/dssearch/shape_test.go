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
)

// classicFacts derives a shape's facts the per-query way: reduce, build
// the tables, walk the master.
func classicFacts(t *testing.T, ds *attr.Dataset, q asp.Query, a, b float64) shapeFacts {
	t.Helper()
	rects, err := asp.Reduce(ds, a, b, asp.AnchorTR)
	if err != nil {
		t.Fatal(err)
	}
	var tab tables
	master, err := buildTables(&tab, rects, q.F, true)
	if err != nil {
		t.Fatal(err)
	}
	return shapeFacts{
		ok:   true,
		wmin: tab.wmin, wmax: tab.wmax, hmin: tab.hmin, hmax: tab.hmax,
		space: asp.Space(master),
	}
}

// searcherFacts reads back what a searcher was built with.
func searcherFacts(s *Searcher) shapeFacts {
	return shapeFacts{
		ok:   true,
		wmin: s.tab.wmin, wmax: s.tab.wmax, hmin: s.tab.hmin, hmax: s.tab.hmax,
		space: s.space,
	}
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
	return x.ok == y.ok && bits(x) == bits(y)
}

// TestShapeFacts holds the pyramid's per-shape memo to the per-query
// derivations it replaces. On a core of one limb a channel and one of
// three-limb chains, for shapes that bind and — two anchors an ulp apart under an extent that absorbs
// the ulp — one that collapses: what a bound searcher holds (extents,
// space) equals measureExtents and asp.Space over the classic build bit
// for bit; the verdict is
// masterSortedNoCollapse's; a collapsing shape falls back and answers as
// the pyramid-less path does; and the second query of a shape derives
// nothing.
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
			want := classicFacts(t, ds, q, a, b)
			master := make([]asp.RectObject, p.geo.n)
			for i, oi := range p.geo.order {
				o := &ds.Objects[oi]
				master[i] = asp.RectObject{Rect: asp.AnchorTR.RectFor(o.Loc, a, b), Obj: o}
			}
			if verdict := masterSortedNoCollapse(master); verdict == sh.collapses {
				t.Fatalf("%s %gx%g: the translated master keeps the pyramid's order: %v; the test wants collapse=%v", kind.name, a, b, verdict, sh.collapses)
			}
			_, wantRes, _, err := SolveASRS(ds, a, b, q, nil, nil, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
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
				if bound := s.tab.pyr == p; bound == sh.collapses {
					t.Fatalf("%s %gx%g query %d: pyramid bound=%v, collapse=%v", kind.name, a, b, round+1, bound, sh.collapses)
				}
				if got := searcherFacts(s); !sameFacts(got, want) {
					t.Fatalf("%s %gx%g query %d: searcher holds %+v, the classic derivations give %+v", kind.name, a, b, round+1, got, want)
				}
				memo, known := p.geo.knownFacts(shapeKey{math.Float64bits(a), math.Float64bits(b)})
				if !known || memo.ok == sh.collapses || memo.ok && !sameFacts(memo, want) {
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
			if prep, ok := p.Prepare(a, b); ok == sh.collapses || ok && !sameFacts(prep.facts, want) {
				t.Fatalf("%s %gx%g: Prepare ok=%v, collapse=%v", kind.name, a, b, ok, sh.collapses)
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
// insert that collapses onto a neighbour's anchor under the shape ends
// the shape's binding on the next fold, and its queries answer as the
// pyramid-less path does.
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
		if s.tab.pyr != p {
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
	if got, want := space(combined, folded), classicFacts(t, combined, q, a, b).space; got != want || got != grown {
		t.Fatalf("folded space %+v, classic %+v, want the insert's %+v", got, want, grown)
	}
	if got := space(ds, base); got != baseSpace {
		t.Fatalf("base space after the fold %+v, want it unchanged", got)
	}

	// x = 5e-324 translates onto the anchor of the object at x = 0
	// (5e-324 − a and −a are one float); below it, the pair is out of
	// order.
	zero := slices.IndexFunc(ds.Objects, func(o attr.Object) bool { return o.Loc.X == 0 })
	insert.Loc = geom.Point{X: math.SmallestNonzeroFloat64, Y: ds.Objects[zero].Loc.Y - 1}
	again := &attr.Dataset{Schema: ds.Schema, Objects: append(append([]attr.Object(nil), combined.Objects...), insert)}
	collapsed, _, err := BuildPyramidDelta(folded, again)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewRegionSearcher(again, a, b, q, Options{Pyramid: collapsed})
	if err != nil {
		t.Fatal(err)
	}
	if s.tab.pyr != nil {
		t.Fatal("a collapsed shape bound the pyramid")
	}
	if facts, known := collapsed.geo.knownFacts(shapeKey{math.Float64bits(a), math.Float64bits(b)}); !known || facts.ok {
		t.Fatalf("memo holds %+v (known=%v); want the collapse remembered", facts, known)
	}
	_, want, _, err := SolveASRS(again, a, b, q, nil, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, got, _, err := SolveASRS(again, a, b, q, nil, nil, Options{Pyramid: collapsed})
	if err != nil {
		t.Fatal(err)
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
		want[i] = classicFacts(t, ds, q, shapes[i][0], shapes[i][1])
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
				if got := searcherFacts(s); s.tab.pyr != p || !sameFacts(got, want[i]) {
					t.Errorf("shape %d round %d: bound=%v, searcher holds %+v, want %+v", i, round, s.tab.pyr == p, got, want[i])
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
// (a1, b1) again. The second and third binds find the slab tagged with the
// pyramid's dataset and order and only move each rectangle's minimum
// corner; every master equals a cold bind's — rectangles bit for bit,
// object pointers identical, the MinX column too — and every answer the
// pyramid-less path's. After an insert and its fold the pyramid's order
// array is new, so the next bind takes the full pass: pointers into the
// new epoch's objects, the tag renamed.
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
		bind := func(ds *attr.Dataset, p *Pyramid, a, b float64, rebind bool) {
			t.Helper()
			if n := len(slabs.free); rebind != (n == 1 && slabs.free[0].masterDS == ds && &slabs.free[0].masterOrder[0] == &p.geo.order[0]) {
				t.Fatalf("%gx%g: %d recycled slabs; want the slab tagged with this dataset and order: %v", a, b, n, rebind)
			}
			cold, err := NewRegionSearcher(ds, a, b, q, Options{Pyramid: p})
			if err != nil {
				t.Fatal(err)
			}
			warm, err := NewRegionSearcher(ds, a, b, q, Options{Pyramid: p, Slabs: slabs})
			if err != nil {
				t.Fatal(err)
			}
			if cold.tab.pyr != p || warm.tab.pyr != p {
				t.Fatalf("%gx%g: the pyramid did not bind", a, b)
			}
			for i := range cold.rects {
				c, w := cold.rects[i], warm.rects[i]
				if c.Obj != w.Obj || c.Obj != &ds.Objects[p.geo.order[i]] || !sameRectBits(c.Rect, w.Rect) ||
					math.Float64bits(cold.tab.minXs[i]) != math.Float64bits(warm.tab.minXs[i]) {
					t.Fatalf("%gx%g master[%d]: warm %v (%p), cold %v (%p)", a, b, i, w.Rect, w.Obj, c.Rect, c.Obj)
				}
			}
			if warm.tab.masterDS != ds || &warm.tab.masterOrder[0] != &p.geo.order[0] {
				t.Fatalf("%gx%g: the slab is not tagged with the dataset and order it holds", a, b)
			}
			warm.Release()
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
		bind(ds, p, 6, 5, false)
		bind(ds, p, 2.75, 9, true)
		bind(ds, p, 6, 5, true)

		extra := make([]attr.Object, 20)
		for i := range extra {
			extra[i] = attr.Object{Loc: geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}, Values: ds.Objects[i].Values}
		}
		combined := &attr.Dataset{Schema: ds.Schema, Objects: append(append([]attr.Object(nil), ds.Objects...), extra...)}
		folded, _, err := FoldPyramid(p, FoldGeometry(p.geo, combined))
		if err != nil {
			t.Fatal(err)
		}
		bind(combined, folded, 6, 5, false)
		bind(combined, folded, 6, 5, true)
	}
}

func sameRectBits(x, y geom.Rect) bool {
	return math.Float64bits(x.MinX) == math.Float64bits(y.MinX) && math.Float64bits(x.MinY) == math.Float64bits(y.MinY) &&
		math.Float64bits(x.MaxX) == math.Float64bits(y.MaxX) && math.Float64bits(x.MaxY) == math.Float64bits(y.MaxY)
}

// TestShapeRegrowsWithHeadroom: a slab's master and MinX buffers take
// exactly n on their first bind; once a growing corpus outgrows them they
// are regrown with masterHeadroom spare, so the next epochs' binds — a
// few objects more each — reuse them instead of reallocating.
func TestShapeRegrowsWithHeadroom(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ds, f := pyramidDataset(t, rng, 320, func() float64 { return float64(rng.Intn(9)) * 0.5 }, false)
	p, err := BuildPyramid(ds, f)
	if err != nil {
		t.Fatal(err)
	}
	var tab tables
	bind := func(p *Pyramid, wantCap int) {
		t.Helper()
		if facts := p.shape(6, 5, &tab); !facts.ok {
			t.Fatal("the shape did not bind")
		}
		if len(tab.masterBuf) != p.geo.n || len(tab.minXsBuf) != p.geo.n {
			t.Fatalf("%d objects bound into buffers of %d and %d", p.geo.n, len(tab.masterBuf), len(tab.minXsBuf))
		}
		if cap(tab.masterBuf) != wantCap || cap(tab.minXsBuf) != wantCap {
			t.Fatalf("%d objects: buffer capacities %d and %d, want %d", p.geo.n, cap(tab.masterBuf), cap(tab.minXsBuf), wantCap)
		}
	}
	grown := func(p *Pyramid, k int) *Pyramid {
		t.Helper()
		objs := append([]attr.Object(nil), p.geo.ds.Objects...)
		for i := 0; i < k; i++ {
			objs = append(objs, attr.Object{Loc: geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}, Values: objs[i].Values})
		}
		folded, _, err := FoldPyramid(p, FoldGeometry(p.geo, &attr.Dataset{Schema: ds.Schema, Objects: objs}))
		if err != nil {
			t.Fatal(err)
		}
		return folded
	}
	bind(p, 320)
	p = grown(p, 16)
	bind(p, 336+336/masterHeadroom)
	master := &tab.masterBuf[0]
	p = grown(p, 16)
	bind(p, 336+336/masterHeadroom)
	if &tab.masterBuf[0] != master {
		t.Fatal("a bind within the headroom reallocated the master")
	}
}
