package asrs_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"asrs"
	"asrs/internal/asp"
	"asrs/internal/dataset"
	"asrs/internal/dssearch"
	"asrs/internal/shard"
)

// TestRequestShapes is the one differential test of what a request
// means. Every shape a QueryRequest can take — k ∈ {1, 3} × exclusions
// (none, an example region, a blocker over the whole space) × extent
// (none, a sub-extent, an exact a×b fit, one too small) — is answered by
// every configuration of the one driver (grid index or none × pyramid or
// none) and held, row by row, to SearchBaseline: the
// same typed error, or for each row the distance of the baseline's best
// region under the exclusions and the rows before it. The comparison is
// per row under the configuration's own earlier rows because equally
// distant regions are tie-broken by search path: after a tie two correct
// greedy sequences diverge. The baseline's own top-k seeds the oracle, so
// its rows are reused wherever a configuration took the same path.
// Distances compare bit for bit, F2's real-valued channels included: the
// sweep, the searches and the probes all sum them as exact limbs.
// Random probes in the window (or space) are the check that shares no
// piece algebra with either side. Beside the three corpora the test runs
// hugeExtentCases: four objects under extents up to 1e19, where the
// search's windows once lost rectangles to rounding.
func TestRequestShapes(t *testing.T) {
	orchard := dataset.SingaporeDistricts()[0].Rect
	n := 600
	if testing.Short() {
		n = 300 // the oracle is O(n²) per sweep, ×10 under the race detector
	}
	tweet, poi, sg := dataset.Tweet(n, 7), dataset.POISyn(n, 3), dataset.SingaporeScaled(n, 42)
	unit := func(ds *asrs.Dataset, k float64) (float64, float64) {
		ua, ub := dataset.QueryUnit(ds.Bounds())
		return k * ua, k * ub
	}
	ta, tb := unit(tweet, 40)
	pa, pb := unit(poi, 60)
	f1, err1 := dataset.F1(tweet, ta, tb)
	f2, err2 := dataset.F2(poi, pa, pb)
	category, err3 := asrs.NewComposite(sg.Schema, asrs.AggSpec{Kind: asrs.Distribution, Attr: "category"})
	if err := errors.Join(err1, err2, err3); err != nil {
		t.Fatal(err)
	}
	byExample, err := asrs.QueryFromRegion(sg, category, nil, orchard)
	if err != nil {
		t.Fatal(err)
	}
	corpora := append([]requestCase{
		{"tweet-f1", tweet, f1, ta, tb, nil},
		{"singapore-category", sg, byExample, orchard.Width(), orchard.Height(), &orchard},
		{"poisyn-f2", poi, f2, pa, pb, nil},
	}, hugeExtentCases(t)...)
	for _, c := range corpora {
		t.Run(c.name, func(t *testing.T) {
			ds, a, b := c.ds, c.a, c.b
			free := asrs.SearchBaseline(ds, asrs.QueryRequest{Query: c.q, A: a, B: b})
			if free.Err != nil {
				t.Fatal(free.Err)
			}
			optimum, _ := free.Best()
			example := optimum
			if c.example != nil {
				example = *c.example
			}
			bounds := ds.Bounds()
			w, h := bounds.Width(), bounds.Height()
			exclusions := []struct {
				name string
				excl []asrs.Rect
			}{
				{"none", nil},
				{"example", []asrs.Rect{example}},
				{"blocker", []asrs.Rect{{MinX: bounds.MinX - 2*a, MinY: bounds.MinY - 2*b, MaxX: bounds.MaxX + 2*a, MaxY: bounds.MaxY + 2*b}}},
			}
			extents := []struct {
				name   string
				within *asrs.Rect
			}{
				{"nil", nil},
				{"extent", &asrs.Rect{MinX: bounds.MinX + 0.2*w, MinY: bounds.MinY + 0.15*h, MaxX: bounds.MaxX - 0.25*w, MaxY: bounds.MaxY - 0.2*h}},
				{"exact-fit", &optimum},
				{"too-small", &asrs.Rect{MinX: optimum.MinX, MinY: optimum.MinY, MaxX: optimum.MinX + a/2, MaxY: optimum.MaxY}},
			}
			idx, err := asrs.NewIndex(ds, c.q.F, 16, 16)
			if err != nil {
				t.Fatal(err)
			}
			pyr, err := asrs.BuildPyramid(ds, c.q.F)
			if err != nil {
				t.Fatal(err)
			}
			rects, err := asp.Reduce(ds, a, b, asp.AnchorTR)
			if err != nil {
				t.Fatal(err)
			}
			// The empty covering set outside the whole space: the one answer
			// of an un-windowed request that no exclusion can forbid.
			outside := asp.AnchorTR.RegionFor(asp.EmptyCandidate(asp.Space(rects)), a, b)
			rng := rand.New(rand.NewSource(18))
			for _, k := range []int{1, 3} {
				for _, ex := range exclusions {
					for _, in := range extents {
						shape := fmt.Sprintf("k=%d/excl=%s/within=%s", k, ex.name, in.name)
						req := asrs.QueryRequest{Query: c.q, A: a, B: b, TopK: k, Exclude: ex.excl, Within: in.within}
						or := newRowOracle(ds, req, outside)
						for _, cfgIdx := range []*asrs.Index{nil, idx} {
							for _, cfgPyr := range []*asrs.Pyramid{nil, pyr} {
								req.Options = &asrs.Options{Pyramid: cfgPyr}
								got, st := asrs.Answer(ds, cfgIdx, req)
								cfg := fmt.Sprintf("%s index=%v pyramid=%v", shape, cfgIdx != nil, cfgPyr != nil)
								if err := asrs.SelfChecked(st); err != nil {
									t.Fatalf("%s: %v", cfg, err)
								}
								if msg := or.check(got); msg != "" {
									t.Fatalf("%s: %s", cfg, msg)
								}
								if msg := probeRows(rng, rects, req, got); msg != "" {
									t.Fatalf("%s: %s", cfg, msg)
								}
							}
						}
					}
				}
			}
		})
	}
}

// requestCase is one corpus, query and answer size of TestRequestShapes.
type requestCase struct {
	name    string
	ds      *asrs.Dataset
	q       asrs.Query
	a, b    float64
	example *asrs.Rect // nil: the unconstrained optimum stands in
}

// hugeExtentCases are four objects of two kinds — a at (0, 0) and (3, 3),
// b at (0.5, 0.5) and (3.5, 3.2) — asked for four distribution targets
// under a = b from 1e6 to 1e19, and under 1e17 × 1 and 1 × 1e17. From
// a = 1e16 on, a window that sought the rectangles meeting (x0, x1)
// through MinX > x0 − wmax rounded x0 − wmax onto every MinX and dropped
// them: at [1, 1] and a = b = 1e17 the search answered distance 2 where
// SearchBaseline answers 0.
func hugeExtentCases(t *testing.T) []requestCase {
	t.Helper()
	schema := asrs.MustSchema(asrs.Attribute{Name: "kind", Kind: asrs.Categorical, Domain: []string{"a", "b"}})
	obj := func(x, y float64, k int) asrs.Object {
		return asrs.Object{Loc: asrs.Point{X: x, Y: y}, Values: []asrs.Value{{Cat: k}}}
	}
	ds := &asrs.Dataset{Schema: schema, Objects: []asrs.Object{obj(0, 0, 0), obj(0.5, 0.5, 1), obj(3, 3, 0), obj(3.5, 3.2, 1)}}
	f, err := asrs.NewComposite(schema, asrs.AggSpec{Kind: asrs.Distribution, Attr: "kind"})
	if err != nil {
		t.Fatal(err)
	}
	var sizes [][2]float64
	for e := 1e6; e <= 1e19; e *= 10 {
		sizes = append(sizes, [2]float64{e, e})
	}
	sizes = append(sizes, [2]float64{1e17, 1}, [2]float64{1, 1e17})
	var cases []requestCase
	for _, target := range [][]float64{{1, 1}, {2, 0}, {0, 1}, {2, 3}} {
		q, err := asrs.QueryFromTarget(f, target, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, ab := range sizes {
			cases = append(cases, requestCase{fmt.Sprintf("huge-%v-%gx%g", target, ab[0], ab[1]), ds, q, ab[0], ab[1], nil})
		}
	}
	return cases
}

// TestHugeExtentsServed holds the served paths — an engine with a 64×64
// index and one without, and a router over four shards — to
// SearchBaseline's distance, bit for bit, on hugeExtentCases (which
// TestRequestShapes runs through Answer).
func TestHugeExtentsServed(t *testing.T) {
	cases := hugeExtentCases(t)
	ds, f := cases[0].ds, cases[0].q.F
	engines := map[string]*asrs.Engine{}
	for _, g := range []int{64, 0} {
		eng, err := asrs.NewEngine(ds, asrs.EngineOptions{IndexGranularity: g})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		engines[fmt.Sprintf("engine grid %d", g)] = eng
	}
	cat, err := shard.New(ds, shard.Config{Shards: 4, Composites: map[string]*asrs.Composite{"kind": f}, Names: []string{"kind"}})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	if n := len(cat.Shards()); n != 4 {
		t.Fatalf("%d shards, want 4", n)
	}
	rt := shard.NewRouter(cat, shard.RouterOptions{Breaker: shard.BreakerConfig{Disable: true}})
	for _, c := range cases {
		req := asrs.QueryRequest{Query: c.q, A: c.a, B: c.b}
		want := asrs.SearchBaseline(ds, req)
		if want.Err != nil {
			t.Fatalf("%s: %v", c.name, want.Err)
		}
		got := map[string]asrs.QueryResponse{}
		for name, eng := range engines {
			got[name] = eng.Query(req)
		}
		routed := rt.Answer(context.Background(), req, shard.Strict)
		got["router"] = asrs.QueryResponse{Regions: routed.Regions, Results: routed.Results, Err: routed.Err}
		for how, resp := range got {
			if resp.Err != nil || len(resp.Results) != 1 {
				t.Fatalf("%s: %s: %v (%v)", c.name, how, resp.Results, resp.Err)
			}
			if d, wd := resp.Results[0].Dist, want.Results[0].Dist; math.Float64bits(d) != math.Float64bits(wd) {
				t.Fatalf("%s: %s answers %v in %v, SearchBaseline %v in %v", c.name, how, d, resp.Regions[0], wd, want.Regions[0])
			}
		}
	}
}

// rowOracle answers "what is the best distance under these exclusions"
// for one request shape from SearchBaseline, remembering every answer by
// its exclusion list, and remembers the first fast answer per list so
// configurations are also held to each other bit for bit.
type rowOracle struct {
	ds      *asrs.Dataset
	req     asrs.QueryRequest
	outside asrs.Rect
	base    map[string]asrs.QueryResponse // exclusion list → the baseline's single best under it
	fast    map[string]float64            // exclusion list → the first configuration's distance
}

func newRowOracle(ds *asrs.Dataset, req asrs.QueryRequest, outside asrs.Rect) *rowOracle {
	or := &rowOracle{ds: ds, req: req, outside: outside, base: map[string]asrs.QueryResponse{}, fast: map[string]float64{}}
	// The baseline's own greedy top-k, taken apart into its rounds.
	want := asrs.SearchBaseline(ds, req)
	excl := req.Exclude[:len(req.Exclude):len(req.Exclude)]
	for i := range want.Regions {
		or.base[fmt.Sprint(excl)] = asrs.QueryResponse{Regions: want.Regions[i : i+1], Results: want.Results[i : i+1]}
		excl = append(excl, want.Regions[i])
	}
	if want.Err != nil {
		or.base[fmt.Sprint(excl)] = want
	} else if len(want.Regions) < max(req.TopK, 1) {
		or.base[fmt.Sprint(excl)] = asrs.QueryResponse{Err: asrs.ErrNoFeasibleRegion}
	}
	return or
}

// best is the baseline's single best under the exclusion list.
func (or *rowOracle) best(excl []asrs.Rect) asrs.QueryResponse {
	key := fmt.Sprint(excl)
	resp, ok := or.base[key]
	if !ok {
		single := or.req
		single.TopK, single.Exclude, single.Options = 0, excl, nil
		resp = asrs.SearchBaseline(or.ds, single)
		or.base[key] = resp
	}
	return resp
}

// check holds one configuration's answer to the oracle and returns what
// is wrong with it, or "".
func (or *rowOracle) check(got asrs.QueryResponse) string {
	excl := or.req.Exclude[:len(or.req.Exclude):len(or.req.Exclude)]
	k := max(or.req.TopK, 1)
	for i := 0; i < k; i++ {
		want := or.best(excl)
		if i == len(got.Regions) {
			// The sequence ended here: with an error before the first row,
			// silently after it, and only because nothing feasible is left
			// or because the round answered the outside region again, which
			// overlaps the row that answered it first (Greedy's stop rule).
			again := want.Err == nil && want.Regions[0] == or.outside && or.req.Within == nil && slices.Contains(got.Regions, or.outside)
			if !again && !errors.Is(want.Err, asrs.ErrNoFeasibleRegion) && !errors.Is(want.Err, asrs.ErrExtentTooSmall) {
				return fmt.Sprintf("answered %d rows (err %v), the baseline answers row %d: %v (err %v)", i, got.Err, i+1, want.Results, want.Err)
			}
			if i == 0 && !errors.Is(got.Err, want.Err) {
				return fmt.Sprintf("failed with %v, the baseline with %v", got.Err, want.Err)
			}
			if i > 0 && got.Err != nil {
				return fmt.Sprintf("ran dry after %d rows with error %v, want none", i, got.Err)
			}
			return ""
		}
		if want.Err != nil {
			return fmt.Sprintf("row %d at %v, the baseline fails with %v", i+1, got.Regions[i], want.Err)
		}
		region, d, wd := got.Regions[i], got.Results[i].Dist, want.Results[0].Dist
		if math.Float64bits(d) != math.Float64bits(wd) {
			return fmt.Sprintf("row %d at distance %v, the baseline's best under the same exclusions %v", i+1, d, wd)
		}
		key := fmt.Sprint(excl)
		if first, ok := or.fast[key]; !ok {
			or.fast[key] = d
		} else if math.Float64bits(first) != math.Float64bits(d) {
			return fmt.Sprintf("row %d at distance %v, another configuration under the same exclusions %v", i+1, d, first)
		}
		if or.req.Within != nil && !or.req.Within.ContainsRect(region) {
			return fmt.Sprintf("row %d region %v escapes the extent %v", i+1, region, *or.req.Within)
		}
		for _, e := range excl {
			if region.IntersectsOpen(e) && (or.req.Within != nil || region != or.outside) {
				return fmt.Sprintf("row %d region %v overlaps %v", i+1, region, e)
			}
		}
		excl = append(excl, region)
	}
	if len(got.Regions) > k || got.Err != nil {
		return fmt.Sprintf("answered %d rows with error %v, want %d and none", len(got.Regions), got.Err, k)
	}
	return ""
}

// probeRows samples anchors of the request's window (or of the space, a
// little beyond the rectangles' hull) and reports one that beats a row
// it could have been: feasible under the exclusions and the rows before.
func probeRows(rng *rand.Rand, rects []asp.RectObject, req asrs.QueryRequest, got asrs.QueryResponse) string {
	space := asp.Space(rects)
	if req.Within != nil {
		space = dssearch.AnchorWindow(*req.Within, req.A, req.B)
	}
	excl := req.Exclude[:len(req.Exclude):len(req.Exclude)]
	for i, region := range got.Regions {
	probes:
		for n := 0; n < 60; n++ {
			p := asrs.Point{X: space.MinX + rng.Float64()*space.Width(), Y: space.MinY + rng.Float64()*space.Height()}
			cand := asp.AnchorTR.RegionFor(p, req.A, req.B)
			for _, e := range excl {
				if cand.IntersectsOpen(e) {
					continue probes
				}
			}
			d := req.Query.Distance(asp.PointRepresentation(rects, req.Query.F, p))
			if d < got.Results[i].Dist {
				return fmt.Sprintf("probe %v beats row %d: %v < %v", p, i+1, d, got.Results[i].Dist)
			}
		}
		excl = append(excl, region)
	}
	return ""
}

// TestGreedyStopRule pins the one top-k policy: each round sees the
// caller's exclusions plus the regions before it (the caller's slice is
// left alone); running dry after an answer ends the sequence without
// error, and so does a round that answers a region overlapping an earlier
// row, while running dry at once, or any other failure, fails the
// request; and answers are sized by the rounds run — k here is beyond
// anything a slice could be made for.
func TestGreedyStopRule(t *testing.T) {
	own := make([]asrs.Rect, 1, 8)
	boom := errors.New("boom")
	for _, tc := range []struct {
		rows    int   // rounds that answer before the sequence fails
		fail    error // what the round after them returns
		wantErr error
	}{
		{3, asrs.ErrNoFeasibleRegion, nil},
		{0, asrs.ErrNoFeasibleRegion, asrs.ErrNoFeasibleRegion},
		{2, boom, boom},
	} {
		calls := 0
		regions, results, err := asrs.Greedy(math.MaxInt, own, func(excl []asrs.Rect) (asrs.Rect, asrs.Result, error) {
			if len(excl) != 1+calls || (calls > 0 && excl[calls].MinX != float64(calls)) {
				t.Fatalf("round %d sees exclusions %v", calls+1, excl)
			}
			if calls == tc.rows {
				return asrs.Rect{}, asrs.Result{}, tc.fail
			}
			calls++
			return asrs.Rect{MinX: float64(calls)}, asrs.Result{Dist: float64(calls)}, nil
		})
		if !errors.Is(err, tc.wantErr) || (tc.wantErr == nil && (err != nil || len(regions) != tc.rows || len(results) != tc.rows)) ||
			(tc.wantErr != nil && regions != nil) {
			t.Fatalf("%d rows then %v: got %d regions, %d results, err %v", tc.rows, tc.fail, len(regions), len(results), err)
		}
	}
	// The un-windowed fallback: with the space used up a round answers the
	// empty region outside it again, exclusions or not.
	unit := func(x float64) asrs.Rect { return asrs.Rect{MinX: x, MinY: 0, MaxX: x + 1, MaxY: 1} }
	calls := 0
	regions, _, err := asrs.Greedy(12, own, func([]asrs.Rect) (asrs.Rect, asrs.Result, error) {
		calls++
		return unit(float64(min(calls, 3))), asrs.Result{}, nil
	})
	if err != nil || len(regions) != 3 || calls != 4 {
		t.Fatalf("a repeated region: %d rows after %d rounds, err %v; want 3 after 4 and none", len(regions), calls, err)
	}
	if own = own[:2]; own[1] != (asrs.Rect{}) {
		t.Fatalf("Greedy wrote into the caller's exclusion slice: %v", own)
	}
}

// TestIndexedSearchOnDegenerateBounds: a corpus that does not extend along
// an axis — objects on a vertical or a horizontal line, or a single
// object, which is what an engine that starts from one object serves until
// its second insert — is answered through the grid index as SearchBaseline
// answers it, bit for bit. The index used to replace such bounds by the
// unit square, after which neither its cells nor the margin strips
// covered the candidate space (distance 6 for the empty region, where the
// line holds regions at distance 0).
func TestIndexedSearchOnDegenerateBounds(t *testing.T) {
	schema := asrs.MustSchema(asrs.Attribute{Name: "kind", Kind: asrs.Categorical, Domain: []string{"a", "b"}})
	line := func(n int, at func(i int) asrs.Point) *asrs.Dataset {
		ds := &asrs.Dataset{Schema: schema}
		for i := 0; i < n; i++ {
			ds.Objects = append(ds.Objects, asrs.Object{Loc: at(i), Values: []asrs.Value{{Cat: i % 2}}})
		}
		return ds
	}
	corpora := []struct {
		name string
		ds   *asrs.Dataset
	}{
		{"vertical-line", line(40, func(i int) asrs.Point { return asrs.Point{X: 5, Y: 10 + 0.1*float64(i)} })},
		{"horizontal-line", line(40, func(i int) asrs.Point { return asrs.Point{X: 10 + 0.1*float64(i), Y: 7} })},
		// y is large enough to absorb +1: the index must still give the
		// axis an extent.
		{"one-object", line(1, func(int) asrs.Point { return asrs.Point{X: 30, Y: 1e17} })},
	}
	for _, c := range corpora {
		t.Run(c.name, func(t *testing.T) {
			f, err := asrs.NewComposite(schema, asrs.AggSpec{Kind: asrs.Distribution, Attr: "kind"})
			if err != nil {
				t.Fatal(err)
			}
			target := []float64{3, 3}
			if len(c.ds.Objects) == 1 {
				target = []float64{1, 0}
			}
			q, err := asrs.QueryFromTarget(f, target, nil)
			if err != nil {
				t.Fatal(err)
			}
			req := asrs.QueryRequest{Query: q, A: 1, B: 0.65}
			switch c.name {
			case "horizontal-line":
				req.A, req.B = 0.65, 1
			case "one-object":
				req.B = 64
			}
			want := asrs.SearchBaseline(c.ds, req)
			if want.Err != nil {
				t.Fatal(want.Err)
			}
			if want.Results[0].Dist != 0 {
				t.Fatalf("baseline distance %v: the corpus was built to hold the target", want.Results[0].Dist)
			}
			idx, err := asrs.NewIndex(c.ds, f, 8, 8)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := asrs.NewEngine(c.ds, asrs.EngineOptions{IndexGranularity: 8})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			direct, _ := asrs.Answer(c.ds, idx, req)
			for name, got := range map[string]asrs.QueryResponse{"Answer": direct, "Engine": eng.Query(req)} {
				if got.Err != nil {
					t.Fatalf("%s: %v", name, got.Err)
				}
				if g, w := got.Results[0].Dist, want.Results[0].Dist; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s with the grid index answers %v at %v, SearchBaseline %v at %v", name, g, got.Regions[0], w, want.Regions[0])
				}
			}
		})
	}
}

// TestCorpusWiderThanTheFloatRange: objects at x = ±9e307 gave a corpus
// whose bounding box is wider than the largest float; the grid index's
// cells were infinite, and a top-2's second row came out at distance 2
// (the empty covering set) where SearchBaseline answers 0. A coordinate
// of magnitude 2^1022 or more is refused at every door — Validate,
// NewIndex, InsertBatch — and a corpus reaching just below the bound on
// both sides is answered as SearchBaseline answers it: by Answer with the
// index and without a pyramid, and by an engine after the insert.
func TestCorpusWiderThanTheFloatRange(t *testing.T) {
	schema := asrs.MustSchema(asrs.Attribute{Name: "kind", Kind: asrs.Categorical, Domain: []string{"a", "b"}})
	obj := func(x float64, k int) asrs.Object {
		return asrs.Object{Loc: asrs.Point{X: x, Y: 0}, Values: []asrs.Value{{Cat: k}}}
	}
	base := []asrs.Object{obj(0, 0), obj(0.5, 1), obj(3, 0), obj(3.5, 1)}
	base[1].Loc.Y, base[2].Loc.Y, base[3].Loc.Y = 0.5, 3, 3.2
	f, err := asrs.NewComposite(schema, asrs.AggSpec{Kind: asrs.Distribution, Attr: "kind"})
	if err != nil {
		t.Fatal(err)
	}
	q, err := asrs.QueryFromTarget(f, []float64{1, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	req := asrs.QueryRequest{Query: q, A: 1, B: 1, TopK: 2}
	for _, far := range []float64{9e307, 0x1p1022, math.Nextafter(0x1p1022, 0)} {
		name := fmt.Sprintf("±%g", far)
		wide := []asrs.Object{obj(far, 0), obj(-far, 1)}
		corpus := &asrs.Dataset{Schema: schema, Objects: append(append([]asrs.Object(nil), base...), wide...)}
		admitted := far < 0x1p1022
		eng, err := asrs.NewEngine(&asrs.Dataset{Schema: schema, Objects: base}, asrs.EngineOptions{IndexGranularity: 64})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		insertErr := eng.InsertBatch(wide)
		_, indexErr := asrs.NewIndex(corpus, f, 64, 64)
		for door, err := range map[string]error{"Validate": corpus.Validate(), "InsertBatch": insertErr, "NewIndex": indexErr} {
			if admitted != (err == nil) || !admitted && !errors.Is(err, asrs.ErrInvalidObject) {
				t.Fatalf("%s: %s: %v", name, door, err)
			}
		}
		served := &asrs.Dataset{Schema: schema, Objects: base}
		got := map[string]asrs.QueryResponse{"Engine": eng.Query(req)}
		if admitted {
			served = corpus
			idx, _ := asrs.NewIndex(corpus, f, 64, 64)
			got["Answer with the index"], _ = asrs.Answer(corpus, idx, req)
			got["Answer without a pyramid"], _ = asrs.Answer(corpus, nil, req)
		}
		want := asrs.SearchBaseline(served, req)
		if want.Err != nil || len(want.Results) != 2 || want.Results[1].Dist != 0 {
			t.Fatalf("%s: the baseline answers %v (%v): the corpus was built to hold the target twice", name, want.Results, want.Err)
		}
		for how, resp := range got {
			if resp.Err != nil || len(resp.Results) != 2 {
				t.Fatalf("%s: %s: %v (%v)", name, how, resp.Results, resp.Err)
			}
			for i, r := range resp.Results {
				if math.Float64bits(r.Dist) != math.Float64bits(want.Results[i].Dist) {
					t.Fatalf("%s: %s answers row %d at %v in %v, SearchBaseline %v in %v", name, how, i+1, r.Dist, resp.Regions[i], want.Results[i].Dist, want.Regions[i])
				}
			}
		}
	}
}

// TestExtentNearTheFloatRange: an answer size at or beyond
// dssearch.MaxExtent is refused by every door that takes one —
// SearchBaseline, Answer with and without an index, an engine and a
// router — and just below it every door answers a finite region at
// SearchBaseline's distance. With objects at ±4e307 and a = b = 1.5e308,
// SearchBaseline used to answer [-Inf,-Inf]×[-Inf,-Inf] and Answer
// [+Inf,+Inf]×[+Inf,+Inf].
func TestExtentNearTheFloatRange(t *testing.T) {
	schema := asrs.MustSchema(asrs.Attribute{Name: "kind", Kind: asrs.Categorical, Domain: []string{"a", "b"}})
	obj := func(x float64, k int) asrs.Object {
		return asrs.Object{Loc: asrs.Point{X: x, Y: x}, Values: []asrs.Value{{Cat: k}}}
	}
	ds := &asrs.Dataset{Schema: schema, Objects: []asrs.Object{obj(-4e307, 0), obj(4e307, 1), obj(0, 0)}}
	f, err := asrs.NewComposite(schema, asrs.AggSpec{Kind: asrs.Distribution, Attr: "kind"})
	if err != nil {
		t.Fatal(err)
	}
	q, err := asrs.QueryFromTarget(f, []float64{0, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := asrs.NewIndex(ds, f, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := asrs.NewEngine(ds, asrs.EngineOptions{IndexGranularity: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	cat, err := shard.New(ds, shard.Config{Shards: 2, Composites: map[string]*asrs.Composite{"kind": f}, Names: []string{"kind"}})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	rt := shard.NewRouter(cat, shard.RouterOptions{Breaker: shard.BreakerConfig{Disable: true}})
	below := math.Nextafter(dssearch.MaxExtent, 0)
	for _, ab := range [][2]float64{{1.5e308, 1.5e308}, {dssearch.MaxExtent, 1}, {1, dssearch.MaxExtent}, {below, below}} {
		req := asrs.QueryRequest{Query: q, A: ab[0], B: ab[1]}
		name := fmt.Sprintf("%g x %g", req.A, req.B)
		routed := rt.Answer(context.Background(), req, shard.Strict)
		got := map[string]asrs.QueryResponse{
			"SearchBaseline": asrs.SearchBaseline(ds, req),
			"Engine":         eng.Query(req),
			"router":         {Regions: routed.Regions, Results: routed.Results, Err: routed.Err},
		}
		got["Answer with the index"], _ = asrs.Answer(ds, idx, req)
		got["Answer without"], _ = asrs.Answer(ds, nil, req)
		want := got["SearchBaseline"]
		for how, resp := range got {
			if req.A != below {
				if resp.Err == nil {
					t.Fatalf("%s: %s answers %v", name, how, resp.Regions)
				}
				continue
			}
			if resp.Err != nil || len(resp.Results) != 1 {
				t.Fatalf("%s: %s: %v (%v)", name, how, resp.Results, resp.Err)
			}
			r := resp.Regions[0]
			for _, v := range []float64{r.MinX, r.MinY, r.MaxX, r.MaxY} {
				if math.IsInf(v, 0) || math.IsNaN(v) {
					t.Fatalf("%s: %s answers the region %v", name, how, r)
				}
			}
			if d, wd := resp.Results[0].Dist, want.Results[0].Dist; math.Float64bits(d) != math.Float64bits(wd) {
				t.Fatalf("%s: %s answers %v in %v, SearchBaseline %v in %v", name, how, d, r, wd, want.Regions[0])
			}
		}
	}
}

// TestNonFiniteWithinIsRefused: a Within extent with an infinite or NaN
// side is refused by every front door that takes one — SearchWithin (the
// one driver), Engine.Query and SearchBaseline — instead of being
// searched as an infinite anchor window, which answered a region at -Inf
// at distance 0. JSON and the query language admit only finite numbers,
// so only the library can pass one.
func TestNonFiniteWithinIsRefused(t *testing.T) {
	ds, f := demoDataset()
	q, err := asrs.QueryFromTarget(f, []float64{0, 0, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := asrs.NewEngine(ds, asrs.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	inf, nan := math.Inf(1), math.NaN()
	for _, within := range []asrs.Rect{
		{MinX: -inf, MinY: -inf, MaxX: inf, MaxY: inf},
		{MinX: 0, MinY: 0, MaxX: inf, MaxY: 40},
		{MinX: -inf, MinY: 0, MaxX: 60, MaxY: 40},
		{MinX: 0, MinY: nan, MaxX: 60, MaxY: 40},
	} {
		region, res, _, err := asrs.SearchWithin(ds, 2, 2, q, within, nil, asrs.Options{})
		if err == nil {
			t.Errorf("SearchWithin over %v answered %v at distance %v, want an error", within, region, res.Dist)
		}
		w := within
		req := asrs.QueryRequest{Query: q, A: 2, B: 2, Within: &w}
		if got := eng.Query(req); got.Err == nil {
			t.Errorf("Engine.Query over %v answered %v, want an error", within, got.Regions)
		}
		if got := asrs.SearchBaseline(ds, req); got.Err == nil {
			t.Errorf("SearchBaseline over %v answered %v, want an error", within, got.Regions)
		}
	}
}

// TestAnswerRecyclesSlabsAcrossRounds holds a request's rounds to the
// search scratch of the free list and to one pyramid: a GI-DS top-10 — a
// searcher per round — takes each round's discretization grid, sweep
// solver and buffers from the slabs released before it, so after a first
// request it builds none of them, and its plan's storage is recycled
// too: with the pyramid given it allocates at most 64 KiB (3.25 MB while
// every round built its own scratch, 0.40 MB with a slab cache per
// request). Without a pyramid it builds one, not one per round: it
// allocates less than one and a half builds more, and answers alike.
func TestAnswerRecyclesSlabsAcrossRounds(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting under -short")
	}
	ds := dataset.POISyn(5000, 42)
	qa, qb := sizeK(ds, 30)
	q, err := dataset.F2(ds, qa, qb)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := asrs.NewIndex(ds, q.F, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	pyr, err := asrs.BuildPyramid(ds, q.F)
	if err != nil {
		t.Fatal(err)
	}
	answer := func(p *asrs.Pyramid) asrs.QueryResponse {
		req := asrs.QueryRequest{Query: q, A: qa, B: qb, TopK: 10, Options: &asrs.Options{Workers: 1, Pyramid: p}}
		resp, _ := asrs.Answer(ds, idx, req)
		if resp.Err != nil || len(resp.Results) != 10 {
			t.Fatalf("top-10 answered %d rows, err %v", len(resp.Results), resp.Err)
		}
		return resp
	}
	var given, oneShot asrs.QueryResponse
	givenBytes := bytesPer(func() { given = answer(pyr) })
	oneShotBytes := bytesPer(func() { oneShot = answer(nil) })
	buildBytes := bytesPer(func() {
		if _, err := asrs.BuildPyramid(ds, q.F); err != nil {
			t.Fatal(err)
		}
	})
	for i := range given.Results {
		if math.Float64bits(given.Results[i].Dist) != math.Float64bits(oneShot.Results[i].Dist) || given.Regions[i] != oneShot.Regions[i] {
			t.Fatalf("row %d: %v at %v with the pyramid given, %v at %v with a one-shot one", i, given.Results[i].Dist, given.Regions[i], oneShot.Results[i].Dist, oneShot.Regions[i])
		}
	}
	t.Logf("top-10 through Answer: %.0f bytes/request with the pyramid given, %.0f with a one-shot one; a build takes %.0f", givenBytes, oneShotBytes, buildBytes)
	if givenBytes > 64<<10 {
		t.Fatalf("a request with the pyramid given allocates %.0f bytes, more than 64 KiB", givenBytes)
	}
	if oneShotBytes-givenBytes > 1.5*buildBytes {
		t.Fatalf("a request without a pyramid allocates %.0f bytes, %.0f more than one with it, whose build takes %.0f", oneShotBytes, oneShotBytes-givenBytes, buildBytes)
	}
}

// TestAnswerScratchSurvivesGC: the scratch a request's rounds recycle —
// dssearch's slabs and plans, and the GI-DS session's range heap, bound
// vectors and id lists — is kept across a garbage collection, so a POISyn
// 5k F2 top-10 through Answer with the pyramid given allocates within 8
// KiB as much when a collection runs before each request as when none
// does (82 707 B against 27 232 B while the GI-DS scratch sat in a
// sync.Pool, which every collection empties).
func TestAnswerScratchSurvivesGC(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting under -short")
	}
	ds := dataset.POISyn(5000, 42)
	qa, qb := sizeK(ds, 30)
	q, err := dataset.F2(ds, qa, qb)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := asrs.NewIndex(ds, q.F, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	pyr, err := asrs.BuildPyramid(ds, q.F)
	if err != nil {
		t.Fatal(err)
	}
	answer := func() {
		req := asrs.QueryRequest{Query: q, A: qa, B: qb, TopK: 10, Options: &asrs.Options{Pyramid: pyr}}
		if resp, _ := asrs.Answer(ds, idx, req); resp.Err != nil || len(resp.Results) != 10 {
			t.Fatalf("top-10 answered %d rows, err %v", len(resp.Results), resp.Err)
		}
	}
	plain := bytesPer(answer)
	collected := bytesPer(func() {
		runtime.GC()
		answer()
	})
	t.Logf("top-10 through Answer: %.0f bytes/request, %.0f with a collection before each", plain, collected)
	if collected-plain > 8<<10 {
		t.Fatalf("a request after a collection allocates %.0f bytes, %.0f more than one without", collected, collected-plain)
	}
}

// TestRefusedRequestBuildsNoPyramid: a request no search can take — bad
// options, a within extent smaller than the region — fails before its
// driver builds a pyramid or compiles anything: it allocates less than a
// tenth of a build.
func TestRefusedRequestBuildsNoPyramid(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting under -short")
	}
	ds := dataset.POISyn(5000, 42)
	qa, qb := sizeK(ds, 30)
	q, err := dataset.F2(ds, qa, qb)
	if err != nil {
		t.Fatal(err)
	}
	buildBytes := bytesPer(func() {
		if _, err := asrs.BuildPyramid(ds, q.F); err != nil {
			t.Fatal(err)
		}
	})
	small := asrs.Rect{MinX: 0, MinY: 0, MaxX: qa / 2, MaxY: qb}
	for _, c := range []struct {
		name string
		req  asrs.QueryRequest
	}{
		{"negative delta", asrs.QueryRequest{Query: q, A: qa, B: qb, Options: &asrs.Options{Delta: -1}}},
		{"1-column grid", asrs.QueryRequest{Query: q, A: qa, B: qb, Options: &asrs.Options{NCol: 1}}},
		{"within smaller than the region", asrs.QueryRequest{Query: q, A: qa, B: qb, Within: &small}},
	} {
		got := bytesPer(func() {
			if resp, _ := asrs.Answer(ds, nil, c.req); resp.Err == nil {
				t.Fatalf("%s: answered", c.name)
			}
		})
		if got > buildBytes/10 {
			t.Fatalf("%s: the refused request allocates %.0f bytes; a build takes %.0f", c.name, got, buildBytes)
		}
	}
}

// bytesPer is the bytes one run of run allocates, averaged over three
// runs after a first.
func bytesPer(run func()) float64 {
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const n = 3
	for range n {
		run()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / n
}

// TestRequestCompilesOnePlan: a request's driver resolves one pyramid and
// compiles the query against it once, and every round reads that plan —
// the GI-DS session's searchers and cell bounds, or the DS-Search
// request's searcher (gridindex's TestSessionReadsItsPlan and dssearch's
// TestSearchReadsItsPlan hold each searcher and its sweep solver to the
// plan they were handed). Held plain and on a 64×64 grid, top-1 and
// top-3, through Answer with the pyramid given and without one, and
// streamed through Engine.Rounds, whose plan reads the epoch's pyramid.
func TestRequestCompilesOnePlan(t *testing.T) {
	ds, f, reqs := batchFixture(t, 2, 55)
	req := reqs[0]
	pyr, err := asrs.BuildPyramid(ds, f)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []int{0, 64} {
		var idx *asrs.Index
		if g > 0 {
			if idx, err = asrs.NewIndex(ds, f, g, g); err != nil {
				t.Fatal(err)
			}
		}
		for _, k := range []int{1, 3} {
			for _, given := range []*asrs.Pyramid{pyr, nil} {
				r := req
				r.TopK, r.Options = k, &asrs.Options{Pyramid: given}
				resp, plans := asrs.AnswerPlans(ds, idx, r)
				if resp.Err != nil || len(plans) != k {
					t.Fatalf("grid %d top-%d: %d rounds, err %v", g, k, len(plans), resp.Err)
				}
				for i, rp := range plans {
					if rp.Compiled == nil || rp.Compiled != plans[0].Compiled || rp.Read != rp.Compiled || rp.Pyramid != plans[0].Pyramid {
						t.Fatalf("grid %d top-%d pyramid given %v, round %d: compiled %p reading %p, read %p; round 0 compiled %p reading %p",
							g, k, given != nil, i, rp.Compiled, rp.Pyramid, rp.Read, plans[0].Compiled, plans[0].Pyramid)
					}
				}
				if p := plans[0].Pyramid; given != nil && p != given || p == nil {
					t.Fatalf("grid %d top-%d pyramid given %v: the plan reads %p", g, k, given != nil, p)
				}
			}
		}
		eng, err := asrs.NewEngine(ds, asrs.EngineOptions{IndexGranularity: g})
		if err != nil {
			t.Fatal(err)
		}
		epoch, err := eng.Pyramid(f)
		if err != nil {
			t.Fatal(err)
		}
		rounds := eng.Rounds(context.Background(), 3)
		r := req
		var first *dssearch.Plan
		for i := 0; i < 3; i++ {
			resp := rounds.Round(r)
			if resp.Err != nil {
				t.Fatal(resp.Err)
			}
			if i == 0 {
				first = rounds.Plan()
			}
			if pl := rounds.Plan(); pl == nil || pl != first || pl.Pyramid() != epoch {
				t.Fatalf("grid %d, streamed round %d: plan %p, round 0's %p", g, i, pl, first)
			}
			r.Exclude = append(r.Exclude, resp.Regions[0])
		}
		rounds.Close()
	}
}
