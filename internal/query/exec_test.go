package query_test

import (
	"context"
	"testing"

	"asrs"
	"asrs/internal/dataset"
	"asrs/internal/query"
	"asrs/internal/wire"
)

// countingBinding wraps a Binding and counts backend rounds.
type countingBinding struct {
	query.Binding
	calls int
}

func (b *countingBinding) Rounds(ctx context.Context, n int) query.Rounds {
	return countingRounds{b.Binding.Rounds(ctx, n), &b.calls}
}

type countingRounds struct {
	query.Rounds
	calls *int
}

func (r countingRounds) Round(req asrs.QueryRequest) (asrs.QueryResponse, *wire.Coverage) {
	*r.calls++
	return r.Rounds.Round(req)
}

// TestStreamLaziness: a top-k stream spends exactly one backend round
// per Next — the first answer costs one round, not k.
func TestStreamLaziness(t *testing.T) {
	ds, _ := corpus(t, 60, 5)
	eng, err := asrs.NewEngine(ds, asrs.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p := query.NewPlanner(ds.Schema, nil)
	pl, err := p.ParseAndPlan(`find top 4 size 6 x 6 similar to target(1,2,1,5) under dist(cat) + sum(val)`)
	if err != nil {
		t.Fatal(err)
	}
	b := &countingBinding{Binding: query.EngineBinding{E: eng}}
	st, err := query.Exec(context.Background(), pl, b)
	if err != nil {
		t.Fatal(err)
	}
	if b.calls != 0 {
		t.Fatalf("Exec issued %d rounds before the first Next", b.calls)
	}
	if _, ok := st.Next(); !ok {
		t.Fatal("first Next returned no row")
	}
	if b.calls != 1 {
		t.Fatalf("first answer cost %d rounds, want exactly 1", b.calls)
	}
	for i := 2; i <= 4; i++ {
		if _, ok := st.Next(); !ok {
			t.Fatalf("Next %d returned no row", i)
		}
		if b.calls != i {
			t.Fatalf("answer %d cost %d cumulative rounds, want %d", i, b.calls, i)
		}
	}
	if _, ok := st.Next(); ok {
		t.Fatal("stream emitted more than top k rows")
	}
	if b.calls != 4 {
		t.Fatalf("exhausted stream spent %d rounds, want 4 (no extra probe round)", b.calls)
	}
}

// TestStreamFilters: dissimilar and diverse post-filters match a manual
// oracle that applies the same predicates to the one-shot greedy
// candidate sequence.
func TestStreamFilters(t *testing.T) {
	ds, f := corpus(t, 80, 23)
	eng, err := asrs.NewEngine(ds, asrs.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p := query.NewPlanner(ds.Schema, nil)
	const by = 0.8
	pl, err := p.ParseAndPlan(`find top 3 size 6 x 6 similar to target(1,2,1,5) under dist(cat) + sum(val) and dissimilar to target(2,0,1,-3) under dist(cat) + sum(val) by 0.8 scan 12`)
	if err != nil {
		t.Fatal(err)
	}
	st, err := query.Exec(context.Background(), pl, query.EngineBinding{E: eng})
	if err != nil {
		t.Fatal(err)
	}
	regions, results, err := st.Collect()
	if err != nil {
		t.Fatal(err)
	}

	// Oracle: the scan-cap-long greedy candidate sequence, hand-filtered.
	q, err := asrs.QueryFromTarget(f, []float64{1, 2, 1, 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp := eng.QueryCtx(context.Background(), asrs.QueryRequest{Query: q, A: 6, B: 6, TopK: 12})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	away := []float64{2, 0, 1, -3}
	var wantRegions []asrs.Rect
	var wantResults []asrs.Result
	for i := range resp.Regions {
		if len(wantRegions) == 3 {
			break
		}
		rep := asrs.Represent(ds, f, resp.Regions[i])
		if !(asrs.Distance(asrs.L1, rep, away, nil) >= by) {
			continue
		}
		wantRegions = append(wantRegions, resp.Regions[i])
		wantResults = append(wantResults, resp.Results[i])
	}
	if len(wantRegions) == 0 || len(wantRegions) == len(resp.Regions) {
		t.Fatalf("degenerate oracle: filter kept %d of %d candidates (tune the test's by)", len(wantRegions), len(resp.Regions))
	}
	if len(regions) != len(wantRegions) {
		t.Fatalf("stream emitted %d rows, oracle kept %d", len(regions), len(wantRegions))
	}
	for i := range regions {
		if !sameRect(regions[i], wantRegions[i]) {
			t.Errorf("region %d: stream %+v != oracle %+v", i, regions[i], wantRegions[i])
		}
		if !sameBits(results[i].Dist, wantResults[i].Dist) {
			t.Errorf("dist %d: stream %v != oracle %v", i, results[i].Dist, wantResults[i].Dist)
		}
	}
}

// TestStreamDiverse: the diversity chain rejects candidates whose
// representation sits within diverse-by of any accepted answer.
func TestStreamDiverse(t *testing.T) {
	ds, f := corpus(t, 80, 41)
	eng, err := asrs.NewEngine(ds, asrs.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p := query.NewPlanner(ds.Schema, nil)
	const by = 1.5
	pl, err := p.ParseAndPlan(`find top 3 size 6 x 6 similar to target(1,2,1,5) under dist(cat) + sum(val) diverse by 1.5 scan 16`)
	if err != nil {
		t.Fatal(err)
	}
	st, err := query.Exec(context.Background(), pl, query.EngineBinding{E: eng})
	if err != nil {
		t.Fatal(err)
	}
	regions, results, err := st.Collect()
	if err != nil {
		t.Fatal(err)
	}

	q, err := asrs.QueryFromTarget(f, []float64{1, 2, 1, 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp := eng.QueryCtx(context.Background(), asrs.QueryRequest{Query: q, A: 6, B: 6, TopK: 16})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	var wantRegions []asrs.Rect
	var accepted [][]float64
	for i := range resp.Regions {
		if len(wantRegions) == 3 {
			break
		}
		ok := true
		for _, prior := range accepted {
			if !(asrs.Distance(asrs.L1, resp.Results[i].Rep, prior, nil) >= by) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		wantRegions = append(wantRegions, resp.Regions[i])
		accepted = append(accepted, resp.Results[i].Rep)
	}
	if len(regions) != len(wantRegions) {
		t.Fatalf("stream emitted %d rows, oracle kept %d", len(regions), len(wantRegions))
	}
	for i := range regions {
		if !sameRect(regions[i], wantRegions[i]) {
			t.Errorf("region %d: stream %+v != oracle %+v", i, regions[i], wantRegions[i])
		}
	}
	_ = results
}

// TestStreamWithinRunsDry: inside a tight extent the greedy sequence
// runs out of non-overlapping candidates; the stream must end cleanly
// with the same shortened answer list as the one-shot within search.
func TestStreamWithinRunsDry(t *testing.T) {
	ds, f := corpus(t, 40, 3)
	eng, err := asrs.NewEngine(ds, asrs.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p := query.NewPlanner(ds.Schema, nil)
	// Extent barely fits one 8x8 answer: later rounds must run dry.
	pl, err := p.ParseAndPlan(`find top 4 size 8 x 8 similar to target(1,2,1,5) under dist(cat) + sum(val) within region(10,10,19,19)`)
	if err != nil {
		t.Fatal(err)
	}
	q, err := asrs.QueryFromTarget(f, []float64{1, 2, 1, 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := asrs.Rect{MinX: 10, MinY: 10, MaxX: 19, MaxY: 19}
	resp := eng.QueryCtx(context.Background(), asrs.QueryRequest{Query: q, A: 8, B: 8, TopK: 4, Within: &w})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if len(resp.Regions) >= 4 {
		t.Fatalf("expected the one-shot answer to run dry, got %d regions", len(resp.Regions))
	}
	checkStreamMatches(t, pl, query.EngineBinding{E: eng}, resp.Regions, resp.Results)
}

// TestStreamMaxRS: the aggregate form yields exactly one row matching
// the direct asrs.MaxRS answer.
func TestStreamMaxRS(t *testing.T) {
	ds := dataset.Random(50, 100, 11)
	eng, err := asrs.NewEngine(ds, asrs.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p := query.NewPlanner(ds.Schema, nil)
	pl, err := p.ParseAndPlan(`maximize sum(val) size 10 x 10`)
	if err != nil {
		t.Fatal(err)
	}
	st, err := query.Exec(context.Background(), pl, query.EngineBinding{E: eng})
	if err != nil {
		t.Fatal(err)
	}
	row, ok := st.Next()
	if !ok {
		t.Fatal(st.Err())
	}
	if _, again := st.Next(); again {
		t.Fatal("maximize stream emitted more than one row")
	}

	idx := ds.Schema.Index("val")
	pts := make([]asrs.MaxRSPoint, 0, len(ds.Objects))
	for i := range ds.Objects {
		pts = append(pts, asrs.MaxRSPoint{Loc: ds.Objects[i].Loc, Weight: ds.Objects[i].Values[idx].Num})
	}
	want, _, err := asrs.MaxRS(pts, 10, 10, asrs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameRect(row.Region, want.Region) || !sameBits(row.Result.Dist, want.Weight) {
		t.Fatalf("maximize row %+v != direct MaxRS %+v", row, want)
	}
}

// TestExecRejectsExplain: explain plans report, they do not execute.
func TestExecRejectsExplain(t *testing.T) {
	ds, _ := corpus(t, 20, 1)
	eng, err := asrs.NewEngine(ds, asrs.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p := query.NewPlanner(ds.Schema, nil)
	pl, err := p.ParseAndPlan(`explain find size 5 x 5 similar to target(1,2,1,5) under dist(cat) + sum(val)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := query.Exec(context.Background(), pl, query.EngineBinding{E: eng}); err == nil {
		t.Fatal("Exec accepted an explain plan")
	}
}

// TestStreamFilteredRunsDry: a stream whose post-filter rejects every
// candidate until its window runs out of them ends as asrs.Greedy ends a
// sequence that ran dry after a candidate: with zero rows and no error.
func TestStreamFilteredRunsDry(t *testing.T) {
	ds, _ := corpus(t, 40, 3)
	eng, err := asrs.NewEngine(ds, asrs.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p := query.NewPlanner(ds.Schema, nil)
	// No region is 1e9 away from the target, and the extent holds only a
	// few 8x8 candidates: the window runs dry well before the scan cap.
	pl, err := p.ParseAndPlan(`find top 2 size 8 x 8 similar to target(1,2,1,5) under dist(cat) + sum(val) and dissimilar to target(1,2,1,5) under dist(cat) + sum(val) by 1e9 within region(10,10,19,19) scan 16`)
	if err != nil {
		t.Fatal(err)
	}
	st, err := query.Exec(context.Background(), pl, query.EngineBinding{E: eng})
	if err != nil {
		t.Fatal(err)
	}
	regions, _, err := st.Collect()
	if err != nil || len(regions) != 0 {
		t.Fatalf("%d rows, err %v; want 0 rows and no error", len(regions), err)
	}
	if r := st.Rounds(); r < 2 || r >= 16 {
		t.Fatalf("%d rounds: the window did not run dry after a candidate", r)
	}
}
