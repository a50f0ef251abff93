package asrs_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"asrs"
	"asrs/internal/dataset"
	"asrs/internal/query"
)

// TestTopKOneShotEqualsStream: a one-shot top-3 (Engine.Query{TopK: 3})
// and the same plan streamed round by round (query.Stream.Next, one
// engine request per row, each excluding the rows before it) go through
// one search path, so they return the same rows — regions and points,
// not only distances, which tie-broken searches would also agree on. On
// the paper's F2 over POISyn, where most optima are ties; with the grid
// index (every round a GI-DS run) and without it (plain DS-Search).
//
// And they end on the same row when the space is used up before k: with
// regions half the bounds wide a top-12 over 30 tweets has room for a few
// rows and the empty region outside the space, which every later round
// falls back on again — both forms stop there instead of repeating it.
func TestTopKOneShotEqualsStream(t *testing.T) {
	t.Run("space-used-up", func(t *testing.T) {
		ds := dataset.Tweet(30, 7)
		bounds := ds.Bounds()
		a, b := bounds.Width()/2, bounds.Height()/2
		for _, grid := range []int{8, 0} {
			eng, err := asrs.NewEngine(ds, asrs.EngineOptions{IndexGranularity: grid, Search: asrs.Options{Workers: 2}})
			if err != nil {
				t.Fatal(err)
			}
			src := fmt.Sprintf("find top 12 size %v x %v similar to target(0,0,0,0,0,3,3) under dist(day)", a, b)
			plan, err := query.NewPlanner(ds.Schema, nil).ParseAndPlan(src)
			if err != nil {
				t.Fatal(err)
			}
			req, err := plan.Request(eng.Epoch().Dataset())
			if err != nil {
				t.Fatal(err)
			}
			oneShot := eng.Query(req)
			if n := len(oneShot.Regions); oneShot.Err != nil || n < 2 || n >= 12 {
				t.Fatalf("grid %d: one-shot answered %d rows, err %v; want a few and none", grid, n, oneShot.Err)
			}
			for i, r := range oneShot.Regions {
				if asrs.OverlapsAny(r, oneShot.Regions[:i]) {
					t.Fatalf("grid %d: row %d (%v) overlaps an earlier row of %v", grid, i+1, r, oneShot.Regions)
				}
			}
			st, err := query.Exec(context.Background(), plan, query.EngineBinding{E: eng})
			if err != nil {
				t.Fatal(err)
			}
			for i, want := range oneShot.Regions {
				if row, ok := st.Next(); !ok || row.Region != want {
					t.Fatalf("grid %d: row %d streamed %v (ok %v, err %v), one-shot %v", grid, i+1, row.Region, ok, st.Err(), want)
				}
			}
			if row, ok := st.Next(); ok || st.Err() != nil {
				t.Fatalf("grid %d: stream went on after the one-shot's %d rows: %v (err %v)", grid, len(oneShot.Regions), row.Region, st.Err())
			}
		}
	})

	ds := dataset.POISyn(2500, 42)
	ua, ub := dataset.QueryUnit(ds.Bounds())
	visits := ds.Schema.Index("visits")
	planner := query.NewPlanner(ds.Schema, nil)
	for _, grid := range []int{32, 0} {
		eng, err := asrs.NewEngine(ds, asrs.EngineOptions{IndexGranularity: grid, Search: asrs.Options{Workers: 2}})
		if err != nil {
			t.Fatal(err)
		}
		queries := 0
		for _, k := range []float64{20, 45} {
			a, b := k*ua, k*ub
			vmax := dataset.MaxWindowStat(ds, a, b, func(o *asrs.Object) float64 { return o.Values[visits].Num })
			for _, norm := range []string{"l1", "l2"} {
				// Terms compile in canonical order (avg before sum), so the
				// target literal is (rating, visits).
				src := fmt.Sprintf("find top 3 size %v x %v similar to target(%v,%v) under %v*sum(visits) + 0.1*avg(rating) norm %s",
					a, b, 7.5, 0.8*vmax, 1/vmax, norm)
				plan, err := planner.ParseAndPlan(src)
				if err != nil {
					t.Fatal(err)
				}
				req, err := plan.Request(eng.Epoch().Dataset())
				if err != nil {
					t.Fatal(err)
				}
				oneShot := eng.Query(req)
				if oneShot.Err != nil || len(oneShot.Regions) != 3 {
					t.Fatalf("grid %d, %s: one-shot answered %d rows, err %v", grid, src, len(oneShot.Regions), oneShot.Err)
				}
				st, err := query.Exec(context.Background(), plan, query.EngineBinding{E: eng})
				if err != nil {
					t.Fatal(err)
				}
				for i := range oneShot.Regions {
					row, ok := st.Next()
					if !ok {
						t.Fatalf("grid %d, %s: stream ended after %d rows: %v", grid, src, i, st.Err())
					}
					want := oneShot.Results[i]
					if row.Region != oneShot.Regions[i] || row.Result.Point != want.Point ||
						math.Float64bits(row.Result.Dist) != math.Float64bits(want.Dist) {
						t.Fatalf("grid %d, %s: row %d streamed %v (point %v, distance %v), one-shot %v (point %v, distance %v)",
							grid, src, i+1, row.Region, row.Result.Point, row.Result.Dist, oneShot.Regions[i], want.Point, want.Dist)
					}
				}
				queries++
			}
		}
		// Rounds 2 and 3 of every query, one-shot and streamed, excluded
		// something; with an index they went through it.
		want := int64(0)
		if grid > 0 {
			want = int64(4 * queries)
		}
		if got := eng.Stats().IndexedExclusionRounds; got != want {
			t.Fatalf("grid %d: %d indexed exclusion rounds, want %d", grid, got, want)
		}
	}
}

// TestStreamRoundsStayOnExecEpoch: a stream's rounds answer on the epoch
// query.Exec captured, the one its target and filters were represented
// against, whatever is inserted between Next calls. After the first row,
// every object inside the second and third rows' regions is inserted a
// second time — their visit sums double, so a round on the newer corpus
// answers elsewhere — and the stream must still return the rows a top-3
// over the Exec-time dataset returns: regions and distances, bit for bit.
// With the grid index and without it.
func TestStreamRoundsStayOnExecEpoch(t *testing.T) {
	ds := dataset.POISyn(2500, 42)
	ua, ub := dataset.QueryUnit(ds.Bounds())
	a, b := 30*ua, 30*ub
	visits := ds.Schema.Index("visits")
	vmax := dataset.MaxWindowStat(ds, a, b, func(o *asrs.Object) float64 { return o.Values[visits].Num })
	src := fmt.Sprintf("find top 3 size %v x %v similar to target(%v,%v) under %v*sum(visits) + 0.1*avg(rating) norm l1",
		a, b, 7.5, 0.8*vmax, 1/vmax)
	plan, err := query.NewPlanner(ds.Schema, nil).ParseAndPlan(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, grid := range []int{32, 0} {
		opt := asrs.EngineOptions{IndexGranularity: grid}
		eng, err := asrs.NewEngine(ds, opt)
		if err != nil {
			t.Fatal(err)
		}
		// The rows of the Exec-time corpus, from an engine that never
		// sees an insert.
		still, err := asrs.NewEngine(ds, opt)
		if err != nil {
			t.Fatal(err)
		}
		req, err := plan.Request(ds)
		if err != nil {
			t.Fatal(err)
		}
		want := still.Query(req)
		if want.Err != nil || len(want.Regions) != 3 {
			t.Fatalf("grid %d: top-3 answered %d rows, err %v", grid, len(want.Regions), want.Err)
		}
		var dup []asrs.Object
		for _, o := range ds.Objects {
			for _, r := range want.Regions[1:] {
				if r.ContainsOpen(o.Loc) {
					dup = append(dup, o)
				}
			}
		}
		if len(dup) == 0 {
			t.Fatalf("grid %d: rows 2 and 3 hold no object to insert again", grid)
		}

		st, err := query.Exec(context.Background(), plan, query.EngineBinding{E: eng})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Regions {
			row, ok := st.Next()
			if !ok {
				t.Fatalf("grid %d: stream ended after %d rows: %v", grid, i, st.Err())
			}
			if row.Region != want.Regions[i] || math.Float64bits(row.Result.Dist) != math.Float64bits(want.Results[i].Dist) {
				t.Fatalf("grid %d: row %d streamed %v at distance %v, the Exec-time corpus answers %v at %v",
					grid, i+1, row.Region, row.Result.Dist, want.Regions[i], want.Results[i].Dist)
			}
			if i == 0 {
				if err := eng.InsertBatch(dup); err != nil {
					t.Fatal(err)
				}
				if n := len(eng.Epoch().Dataset().Objects); n != len(ds.Objects)+len(dup) {
					t.Fatalf("grid %d: %d objects after the insert, want %d", grid, n, len(ds.Objects)+len(dup))
				}
			}
		}
		// The newer corpus does answer otherwise, or the test proves nothing.
		newer, err := plan.Request(eng.Epoch().Dataset())
		if err != nil {
			t.Fatal(err)
		}
		if now := eng.Query(newer); now.Err != nil || now.Regions[1] == want.Regions[1] {
			t.Fatalf("grid %d: the grown corpus answers row 2 at %v (err %v), as the Exec-time one did", grid, now.Regions, now.Err)
		}
	}
}
