package shard_test

import (
	"context"
	"fmt"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"asrs"
	"asrs/internal/dataset"
	"asrs/internal/query"
	"asrs/internal/shard"
)

// The epoch tests' straddling top-k: 2 000 objects on four shards, an
// extent across every cut, and an insert as large as the corpus, which
// moves the answer of any round that reads it.
const snapN, snapSide = 2000, 5.0

var snapExtent = asrs.Rect{MinX: 2, MinY: 2, MaxX: 98, MaxY: 98}

// snapshotRouters returns the router under test, a router over the same
// corpus that nothing is inserted into, the query and the insert. Neither
// shares a cap across sub-searches, so each picks its tied points the
// same way every run: a straddle's regions may differ from one engine's
// only between exact ties (DESIGN.md §11), so the pre-insert merged
// corpus's answer, regions included, is the second router's.
func snapshotRouters(t *testing.T) (rt, pre *shard.Router, q asrs.Query, extra []asrs.Object) {
	t.Helper()
	ds, f, q := corpus(t, snapN, 58)
	ropt := shard.RouterOptions{Breaker: shard.BreakerConfig{Disable: true}}.WithoutBoundShare()
	rt = shard.NewRouter(newCatalog(t, ds, f, 4), ropt)
	if got := len(bandWindows(rt.Catalog(), snapExtent, snapSide)); got != 3 {
		t.Fatalf("the extent straddles %d cuts, want 3", got)
	}
	pre = shard.NewRouter(newCatalog(t, ds, f, 4), ropt)
	return rt, pre, q, dataset.Random(snapN, 100, 59).Objects
}

// checkRows holds a routed top-k's rows to the pre-insert corpus's:
// region, point, distance and representation, bit for bit.
func checkRows(t *testing.T, pre *shard.Router, q asrs.Query, regions []asrs.Rect, results []asrs.Result) {
	t.Helper()
	want := pre.Query(context.Background(), shard.Request{Query: q, A: snapSide, B: snapSide, TopK: len(regions), Extent: &snapExtent})
	if want.Err != nil {
		t.Fatal(want.Err)
	}
	if len(regions) != len(want.Regions) {
		t.Fatalf("%d rows, the pre-insert corpus answers %d", len(regions), len(want.Regions))
	}
	for i := range regions {
		r, w := results[i], want.Results[i]
		if !sameRect(regions[i], want.Regions[i]) || !sameBits(r.Dist, w.Dist) ||
			!sameBits(r.Point.X, w.Point.X) || !sameBits(r.Point.Y, w.Point.Y) || !sameRep(r.Rep, w.Rep) {
			t.Fatalf("row %d: %v dist %v, the pre-insert corpus answers %v dist %v", i+1, regions[i], r.Dist, want.Regions[i], w.Dist)
		}
	}
}

// checkInsertMoves fails a test whose insert would not have shown: after
// it, the routed top-k must differ from the pre-insert corpus's.
func checkInsertMoves(t *testing.T, rt *shard.Router, q asrs.Query, k int, pre []asrs.Result) {
	t.Helper()
	resp := rt.Query(context.Background(), shard.Request{Query: q, A: snapSide, B: snapSide, TopK: k, Extent: &snapExtent})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	for i := range pre {
		if i >= len(resp.Results) || !sameBits(resp.Results[i].Dist, pre[i].Dist) {
			return
		}
	}
	t.Fatalf("the insert leaves the top-%d unchanged: the test shows nothing", k)
}

// TestRoutedStreamReadsOneSnapshot: a routed stream's rounds read the
// shard epochs its session pinned, so an insert between rounds 1 and 2
// does not reach round 2, which answers the pre-insert corpus's second
// row.
func TestRoutedStreamReadsOneSnapshot(t *testing.T) {
	checkLeaks(t)
	rt, pre, q, extra := snapshotRouters(t)
	rounds := query.RouterBinding{R: rt}.Rounds(context.Background(), 2)
	defer rounds.Close()
	if got := len(rounds.Dataset().Objects); got != snapN {
		t.Fatalf("the stream's corpus has %d objects, want %d", got, snapN)
	}
	req := asrs.QueryRequest{Query: q, A: snapSide, B: snapSide, Within: &snapExtent}
	var regions []asrs.Rect
	var results []asrs.Result
	for round := 1; round <= 2; round++ {
		if round == 2 {
			if err := rt.Insert(extra); err != nil {
				t.Fatal(err)
			}
		}
		resp, _ := rounds.Round(req)
		if resp.Err != nil {
			t.Fatalf("round %d: %v", round, resp.Err)
		}
		region, res := resp.Best()
		regions, results = append(regions, region), append(results, res)
		req.Exclude = append(req.Exclude, region)
	}
	checkRows(t, pre, q, regions, results)
	checkInsertMoves(t, rt, q, 2, results)
}

// insertCtx is a request context whose Deadline — which the router reads
// once per sub-search, to carve the sub-search's budget — inserts a batch
// on the read after the first round's last: between rounds 1 and 2.
type insertCtx struct {
	context.Context
	firstRound int32
	reads      atomic.Int32
	insert     func()
}

func (c *insertCtx) Deadline() (time.Time, bool) {
	if c.reads.Add(1) == c.firstRound+1 {
		c.insert()
	}
	return time.Time{}, false
}

// TestRoutedTopKReadsOneSnapshot: a one-shot straddling top-3 reads the
// shard epochs its session pinned in round 1, so an insert between rounds
// 1 and 2 reaches none of its rows.
func TestRoutedTopKReadsOneSnapshot(t *testing.T) {
	checkLeaks(t)
	rt, pre, q, extra := snapshotRouters(t)
	// Round 1 is one sub-search per shard and per band.
	ctx := &insertCtx{Context: context.Background(), firstRound: 4 + 3}
	ctx.insert = func() {
		if err := rt.Insert(extra); err != nil {
			t.Error(err)
		}
	}
	resp := rt.Query(ctx, shard.Request{Query: q, A: snapSide, B: snapSide, TopK: 3, Extent: &snapExtent})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if reads := ctx.reads.Load(); reads <= ctx.firstRound {
		t.Fatalf("%d sub-searches, so the insert never ran between rounds", reads)
	}
	checkRows(t, pre, q, resp.Regions, resp.Results)
	checkInsertMoves(t, rt, q, 3, resp.Results)
}

// TestContainedStreamLoadsOnlyItsShard: a stream that represents no region
// (a literal target, no post-filter) never reads its session's merged
// corpus, so a top-2 within shard-0's slab loads shard-0 alone — reading
// the corpus would pin and load every shard.
func TestContainedStreamLoadsOnlyItsShard(t *testing.T) {
	checkLeaks(t)
	ds, f, _ := corpus(t, 400, 62)
	rt := shard.NewRouter(newCatalog(t, ds, f, 3), shard.RouterOptions{})
	cut := rt.Catalog().Cuts()[0]
	pl, err := query.NewPlanner(ds.Schema, map[string]*asrs.Composite{"q": f}).ParseAndPlan(fmt.Sprintf(
		"find top 2 size 4 x 4 similar to target(1,2,1,5) under @q within region(0,0,%s,100)",
		strconv.FormatFloat(cut, 'g', -1, 64)))
	if err != nil {
		t.Fatal(err)
	}
	st, err := query.Exec(context.Background(), pl, query.RouterBinding{R: rt})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Collect(); err != nil || st.Emitted() != 2 {
		t.Fatalf("%d rows, %v", st.Emitted(), err)
	}
	if got := st.Coverage().Searched; len(got) != 1 || got[0] != "shard-0" {
		t.Fatalf("searched %v, want [shard-0]", got)
	}
	for _, sh := range rt.Catalog().Shards()[1:] {
		if sh.Loaded() != nil {
			t.Fatalf("%s loaded by a stream that searched shard-0 alone", sh.Name())
		}
	}
}
