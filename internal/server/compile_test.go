package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"asrs"
	"asrs/internal/dataset"
	"asrs/internal/dssearch"
	"asrs/internal/wire"
)

// oracleRequest is the request the server built from a wire body before
// bodies compiled through the planner, kept as the reference the planner's
// wire form must match: the body's composite, norm, literal target or
// example region represented on ds, a and b each defaulting to the
// region's side, exclusions in body order then the region under
// exclude_region, the extent, top_k and, for δ > 0, the serving options
// base with δ pinned.
func oracleRequest(composites map[string]*asrs.Composite, ds *asrs.Dataset, base asrs.Options, wq wire.Query) (asrs.QueryRequest, error) {
	f, ok := composites[wq.Composite]
	if !ok {
		return asrs.QueryRequest{}, fmt.Errorf("unknown composite %q", wq.Composite)
	}
	norm, err := wire.ParseNorm(wq.Norm)
	if err != nil {
		return asrs.QueryRequest{}, err
	}
	a, b := wq.A, wq.B
	var q asrs.Query
	exclude := make([]asrs.Rect, 0, len(wq.Exclude)+1)
	for _, r := range wq.Exclude {
		exclude = append(exclude, wire.RectLib(r))
	}
	switch {
	case wq.Region != nil && wq.Target != nil:
		return asrs.QueryRequest{}, fmt.Errorf("set either target or region, not both")
	case wq.Region != nil:
		rq := wire.RectLib(*wq.Region)
		if a == 0 {
			a = rq.Width()
		}
		if b == 0 {
			b = rq.Height()
		}
		q, err = asrs.QueryFromRegion(ds, f, wq.Weights, rq)
		if err != nil {
			return asrs.QueryRequest{}, err
		}
		if wq.ExcludeRegion {
			exclude = append(exclude, rq)
		}
	case wq.Target != nil:
		q, err = asrs.QueryFromTarget(f, wq.Target, wq.Weights)
		if err != nil {
			return asrs.QueryRequest{}, err
		}
	default:
		return asrs.QueryRequest{}, fmt.Errorf("query requires a target or an example region")
	}
	q.Norm = norm
	if err := dssearch.CheckExtent(a, b); err != nil {
		return asrs.QueryRequest{}, err
	}
	if wq.TopK < 0 || wq.TopK > asrs.MaxTopK {
		return asrs.QueryRequest{}, fmt.Errorf("top_k must be between 0 and %d, got %d", asrs.MaxTopK, wq.TopK)
	}
	if wq.Delta < 0 {
		return asrs.QueryRequest{}, fmt.Errorf("delta must be non-negative, got %g", wq.Delta)
	}
	req := asrs.QueryRequest{Query: q, A: a, B: b, TopK: wq.TopK, Exclude: exclude}
	if wq.Extent != nil {
		ext := wire.RectLib(*wq.Extent)
		if !ext.IsValid() {
			return asrs.QueryRequest{}, fmt.Errorf("invalid extent: min must not exceed max")
		}
		req.Within = &ext
	}
	if wq.Delta > 0 {
		opt := base
		opt.Delta = wq.Delta
		req.Options = &opt
	}
	if wq.TimeoutMS < 0 {
		return asrs.QueryRequest{}, fmt.Errorf("timeout_ms must be non-negative, got %d", wq.TimeoutMS)
	}
	return req, nil
}

// requestDiff names the first distance-relevant field, or option, in which
// two requests differ ("" when none does). Floats compare by bits; a nil
// and an empty Exclude are equal, a nil and an empty vector are not.
func requestDiff(got, want asrs.QueryRequest) string {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	sameVec := func(a, b []float64) bool {
		if (a == nil) != (b == nil) || len(a) != len(b) {
			return false
		}
		for i := range a {
			if !same(a[i], b[i]) {
				return false
			}
		}
		return true
	}
	sameRect := func(a, b asrs.Rect) bool {
		return same(a.MinX, b.MinX) && same(a.MinY, b.MinY) && same(a.MaxX, b.MaxX) && same(a.MaxY, b.MaxY)
	}
	switch {
	case got.Query.F != want.Query.F:
		return "composite"
	case got.Query.Norm != want.Query.Norm:
		return "norm"
	case !sameVec(got.Query.Target, want.Query.Target):
		return fmt.Sprintf("target %v, want %v", got.Query.Target, want.Query.Target)
	case !sameVec(got.Query.W, want.Query.W):
		return fmt.Sprintf("weights %v, want %v", got.Query.W, want.Query.W)
	case !same(got.A, want.A) || !same(got.B, want.B):
		return fmt.Sprintf("size %g x %g, want %g x %g", got.A, got.B, want.A, want.B)
	case got.TopK != want.TopK:
		return fmt.Sprintf("top_k %d, want %d", got.TopK, want.TopK)
	case len(got.Exclude) != len(want.Exclude):
		return fmt.Sprintf("exclusions %v, want %v", got.Exclude, want.Exclude)
	case (got.Within == nil) != (want.Within == nil) || got.Within != nil && !sameRect(*got.Within, *want.Within):
		return fmt.Sprintf("extent %v, want %v", got.Within, want.Within)
	case (got.Options == nil) != (want.Options == nil) || got.Options != nil && *got.Options != *want.Options:
		return fmt.Sprintf("options %+v, want %+v", got.Options, want.Options)
	}
	for i := range got.Exclude {
		if !sameRect(got.Exclude[i], want.Exclude[i]) {
			return fmt.Sprintf("exclusion %d %v, want %v", i, got.Exclude[i], want.Exclude[i])
		}
	}
	return ""
}

// TestWireBodiesCompileToTheOracle: every wire body the server took before
// it compiled bodies through the planner compiles to the same request, bit
// for bit, through the planner (PlanWire) and Plan.Request +
// Plan.ApplyOptions on the engine's epoch — except the bodies the
// planner's shared rules now refuse, which answer 400.
func TestWireBodiesCompileToTheOracle(t *testing.T) {
	ds := dataset.Random(400, 100, 59)
	f, err := asrs.NewComposite(ds.Schema,
		asrs.AggSpec{Kind: asrs.Distribution, Attr: "cat"},
		asrs.AggSpec{Kind: asrs.Sum, Attr: "val"},
	)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := asrs.NewEngine(ds, asrs.EngineOptions{Search: asrs.Options{NCol: 24, NRow: 20}})
	if err != nil {
		t.Fatal(err)
	}
	composites := map[string]*asrs.Composite{"q": f}
	s, err := New(Config{Engine: eng, Composites: composites})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	region := &wire.Rect{MinX: 40, MinY: 35, MaxX: 48.5, MaxY: 41}
	tgt := []float64{3, 1, 2, 7.5}
	ok := []struct {
		name string
		wq   wire.Query
	}{
		{"target", wire.Query{Composite: "q", A: 5, B: 4, Target: tgt}},
		{"target and weights", wire.Query{Composite: "q", A: 5, B: 4, Target: tgt, Weights: []float64{1, 0.5, 2, 0.25}}},
		{"l2", wire.Query{Composite: "q", A: 5, B: 4, Target: tgt, Norm: "l2"}},
		{"exclusions in body order", wire.Query{Composite: "q", A: 5, B: 4, Target: tgt,
			Exclude: []wire.Rect{{MinX: 60, MinY: 60, MaxX: 70, MaxY: 70}, {MinX: 10, MinY: 10, MaxX: 20, MaxY: 20}}}},
		{"region", wire.Query{Composite: "q", Region: region}},
		{"region excluded after the body's exclusions", wire.Query{Composite: "q", Region: region, ExcludeRegion: true,
			Exclude: []wire.Rect{{MinX: 80, MinY: 5, MaxX: 90, MaxY: 15}}}},
		{"region, a given", wire.Query{Composite: "q", Region: region, A: 3}},
		{"region, b given", wire.Query{Composite: "q", Region: region, B: 2.5}},
		{"region and weights", wire.Query{Composite: "q", Region: region, Weights: []float64{2, 2, 1, 0.5}}},
		{"extent", wire.Query{Composite: "q", A: 5, B: 4, Target: tgt, Extent: &wire.Rect{MinX: 0, MinY: 0, MaxX: 55, MaxY: 60}}},
		{"delta pins the serving options", wire.Query{Composite: "q", A: 5, B: 4, Target: tgt, Delta: 0.25}},
		{"top_k", wire.Query{Composite: "q", A: 5, B: 4, Target: tgt, TopK: 4}},
		{"everything", wire.Query{Composite: "q", Region: region, ExcludeRegion: true, B: 6, Norm: "l2", TopK: 3, Delta: 0.5,
			Weights: []float64{1, 1, 1, 0.125}, Exclude: []wire.Rect{{MinX: 1, MinY: 2, MaxX: 3, MaxY: 4}},
			Extent: &wire.Rect{MinX: 20, MinY: 20, MaxX: 80, MaxY: 80}, TimeoutMS: 900}},
	}
	ds0 := eng.Epoch().Dataset()
	for _, tc := range ok {
		want, err := oracleRequest(composites, ds0, eng.SearchOptions(), tc.wq)
		if err != nil {
			t.Fatalf("%s: the oracle refuses the body: %v", tc.name, err)
		}
		backend, pl, err := s.compile(tc.wq)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, err := pl.Request(ds0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		pl.ApplyOptions(&got, backend.SearchOptions())
		if d := requestDiff(got, want); d != "" {
			t.Errorf("%s: %s", tc.name, d)
		}
	}

	// Bodies the oracle took and the planner's rectangle rule refuses.
	refused := []struct {
		name string
		wq   wire.Query
	}{
		{"inverted example region", wire.Query{Composite: "q", A: 5, B: 4, Region: &wire.Rect{MinX: 48, MinY: 41, MaxX: 40, MaxY: 35}}},
		{"inverted exclusion", wire.Query{Composite: "q", A: 5, B: 4, Target: tgt, Exclude: []wire.Rect{{MinX: 20, MinY: 20, MaxX: 10, MaxY: 10}}}},
	}
	for _, tc := range refused {
		if _, err := oracleRequest(composites, ds0, eng.SearchOptions(), tc.wq); err != nil {
			t.Fatalf("%s: the oracle refuses it too: %v", tc.name, err)
		}
		body, err := json.Marshal(tc.wq)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", tc.name, rec.Code, rec.Body)
		}
	}
	if st := eng.Stats(); st.Queries != 0 {
		t.Fatalf("a refused body reached the engine: %d queries", st.Queries)
	}
}
