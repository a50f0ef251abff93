package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"asrs"
	"asrs/internal/dssearch"
	"asrs/internal/kernel"
	"asrs/internal/persist"
	"asrs/internal/query"
	"asrs/internal/server"
	"asrs/internal/shard"
	"asrs/internal/sweep"
	"asrs/internal/wal"
	"asrs/internal/wire"
)

// The traced run measures the layers from outside: it replays the
// workload's block against the daemon (root span "http"), then calls
// each layer's public functions in-process with the same generated
// inputs, one layer down at a time, and records a span around every
// call. A layer's self time is the median over operations of its span
// minus the span one layer down for the same operation (selfMs). Spans
// inside asrsd are a later change.

// perLayer are the ungated metrics, one module per prefix. Every
// workload reports all of them; a layer idle in a workload reports 0.
var perLayer = []metricSpec{
	{Name: "server.self_ms_p50", Unit: "ms", Better: "lower", doc: "in-process Handler().ServeHTTP minus the backend call (includes the coalescing window wait)"},
	{Name: "server.socket_ms_p50", Unit: "ms", Better: "lower", doc: "daemon round trip minus in-process handler: loopback, net/http, process boundary"},
	{Name: "server.coalesce_width", Unit: "count", Better: "higher", doc: "/stats batched_requests ÷ batches over the replay"},
	{Name: "server.shed_pct", Unit: "%", Better: "lower", doc: "429s ÷ requests received"},
	{Name: "server.timeout_pct", Unit: "%", Better: "lower", doc: "504s ÷ requests received"},
	{Name: "server.insert_ms_p50", Unit: "ms", Better: "lower", doc: "in-process POST /v1/insert of 128 objects (memory-only ingest)"},
	{Name: "query.parse_plan_us_p50", Unit: "us", Better: "lower", doc: "Planner.ParseAndPlan"},
	{Name: "query.rounds_per_op", Unit: "count", Better: "lower", doc: "backend rounds one streamed search issues (Stream.Rounds)"},
	{Name: "query.first_row_share", Unit: "ratio", Better: "lower", doc: "time to the first Stream.Next row ÷ time to drain the stream"},
	{Name: "query.stream_vs_oneshot_ratio", Unit: "ratio", Better: "lower", doc: "Exec drain ÷ one Engine.QueryCtx{TopK} (1.19 on file)"},
	{Name: "engine.self_ms_p50", Unit: "ms", Better: "lower", doc: "Engine.QueryCtx minus the asrs search call with the same pyramid"},
	{Name: "engine.dedup_hit_ratio", Unit: "ratio", Better: "higher", doc: "/stats dedup_hits ÷ queries over the replay"},
	{Name: "engine.prepared_shared_ratio", Unit: "ratio", Better: "higher", doc: "/stats prepared_shared ÷ queries over the replay"},
	{Name: "engine.prepare_us_p50", Unit: "us", Better: "lower", doc: "Pyramid.Prepare(a, b)"},
	{Name: "engine.warm_ms", Unit: "ms", Better: "lower", doc: "Engine.Warm with the pyramid already installed (index build)"},
	{Name: "engine.first_query_after_insert_ratio", Unit: "ratio", Better: "lower", doc: "first query after InsertBatch(128) ÷ the same query before it (+53 % on file)"},
	{Name: "engine.pyramid_folds", Unit: "count", Better: "higher", doc: "/stats pyramid_folds over the replay"},
	{Name: "engine.compactions", Unit: "count", Better: "lower", doc: "/stats compactions over the replay"},
	{Name: "dssearch.search_ms_p50", Unit: "ms", Better: "lower", doc: "asrs.SearchWithIndex (SearchWithin for extent queries) with the pyramid bound"},
	{Name: "dssearch.discretizations_per_op", Unit: "count", Better: "lower", doc: "SearchStats.Discretizations"},
	{Name: "dssearch.sat_fill_ratio", Unit: "ratio", Better: "higher", doc: "SATFills ÷ Discretizations"},
	{Name: "dssearch.splits_per_op", Unit: "count", Better: "lower", doc: "SearchStats.Splits"},
	{Name: "dssearch.pruned_cell_ratio", Unit: "ratio", Better: "higher", doc: "PrunedCells ÷ DirtyCells"},
	{Name: "dssearch.refined_cells_per_op", Unit: "count", Better: "lower", doc: "SearchStats.RefinedCells"},
	{Name: "dssearch.minisweeps_per_op", Unit: "count", Better: "lower", doc: "SearchStats.MiniSweeps"},
	{Name: "dssearch.minisweep_rects_per_op", Unit: "count", Better: "lower", doc: "SearchStats.MiniSweepRects"},
	{Name: "dssearch.nopyramid_ratio", Unit: "ratio", Better: "higher", doc: "the same search without the pyramid ÷ with it"},
	{Name: "dssearch.pyramid_build_ms", Unit: "ms", Better: "lower", doc: "asrs.BuildPyramid over the corpus"},
	{Name: "dssearch.delta_fold_ms", Unit: "ms", Better: "lower", doc: "BuildPyramidDelta folding 128 appended objects"},
	{Name: "kernel.heap_pushes_per_op", Unit: "count", Better: "lower", doc: "SearchStats.HeapPushes"},
	{Name: "kernel.max_heap", Unit: "count", Better: "lower", doc: "largest SearchStats.MaxHeapSize of any op"},
	{Name: "kernel.steals_per_op", Unit: "count", Better: "lower", doc: "SearchStats.Steals (0 with one worker)"},
	{Name: "kernel.run_ns_per_item_w1", Unit: "ns", Better: "lower", doc: "kernel.Run over 16k no-op items, one worker"},
	{Name: "kernel.run_ns_per_item_w2", Unit: "ns", Better: "lower", doc: "the same with two workers"},
	{Name: "sweep.flat_strip_ratio", Unit: "ratio", Better: "higher", doc: "FlatStrips ÷ (FlatStrips + FenwickStrips)"},
	{Name: "sweep.solve_us_per_rect", Unit: "us", Better: "lower", doc: "sweep.New(2k-rect sample of ReduceForSearch).Solve() per rectangle"},
	{Name: "gridindex.build_ms", Unit: "ms", Better: "lower", doc: "asrs.NewIndex 64×64"},
	{Name: "gridindex.cells_searched_ratio", Unit: "ratio", Better: "lower", doc: "IndexStats.CellsSearched ÷ Cells"},
	{Name: "gridindex.search_vs_plain_ratio", Unit: "ratio", Better: "lower", doc: "SearchWithIndex ÷ plain Search, same pyramid"},
	{Name: "shard.contained_ms_p50", Unit: "ms", Better: "lower", doc: "Router.Query, extents inside one slab"},
	{Name: "shard.straddle_ms_p50", Unit: "ms", Better: "lower", doc: "Router.Query, extents across a cut"},
	{Name: "shard.fanout_per_op", Unit: "count", Better: "lower", doc: "shards searched per routed query (Coverage.Searched)"},
	{Name: "shard.straddle_vs_merged_ratio", Unit: "ratio", Better: "lower", doc: "Router.Query ÷ one merged Engine with Within, straddling extents (1/0.69 on file)"},
	{Name: "shard.catalog_build_ms", Unit: "ms", Better: "lower", doc: "shard.New + WarmAll"},
	{Name: "wal.append_us_per_batch", Unit: "us", Better: "lower", doc: "Append + Sync of one 128-object record"},
	{Name: "wal.bytes_per_object", Unit: "count", Better: "lower", doc: "log bytes ÷ objects appended"},
	{Name: "wal.replay_ms", Unit: "ms", Better: "lower", doc: "wal.Open replaying and decoding 32 records"},
	{Name: "persist.pyramid_save_ms", Unit: "ms", Better: "lower", doc: "persist.SavePyramid (temp, fsync, rename)"},
	{Name: "persist.pyramid_load_ms", Unit: "ms", Better: "lower", doc: "persist.LoadPyramid"},
	{Name: "persist.pyramid_mb", Unit: "MiB", Better: "lower", doc: "pyramid file size"},
	{Name: "persist.snapshot_save_ms", Unit: "ms", Better: "lower", doc: "persist.SaveIngestSnapshot of 4096 objects"},
	{Name: "host.speed_factor_p50", Unit: "ratio", Better: "higher", doc: "median host-speed factor of the daemon replay"},
	{Name: "host.speed_factor_iqr", Unit: "ratio", Better: "lower", doc: "its interquartile range"},
	{Name: "raw.throughput_ops_s", Unit: "1/s", Better: "higher", doc: "un-normalised throughput of the daemon replay"},
	{Name: "raw.latency_p50_ms", Unit: "ms", Better: "lower", doc: "un-normalised latency p50 of the daemon replay"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", doc: "normalised http p50 of the traced pass over the untraced pass, minus one"},
}

// span is one recorded interval.
type span struct {
	Name    string `json:"name"`
	Op      string `json:"op"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(name, op, parent string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// time runs fn inside a span and returns its duration in ms.
func (t *tracer) time(name, op, parent string, fn func()) float64 {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(name, op, parent, start, end)
	return ms(end.Sub(start))
}

// ms returns the durations of every span with the given name.
func (t *tracer) ms(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs)/1e6)
		}
	}
	return out
}

// selfMs is a layer's self time: the median over operations of the
// layer's span minus the span one layer down for the same operation.
// Pairing per operation keeps the spread of costs across operations out
// of a difference that is often a small share of either term.
func (t *tracer) selfMs(outer, inner string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	in := map[string]float64{}
	for _, s := range t.spans {
		if s.Name == inner {
			in[s.Op] = float64(s.EndNs-s.StartNs) / 1e6
		}
	}
	var diffs []float64
	for _, s := range t.spans {
		if d, ok := in[s.Op]; ok && s.Name == outer {
			diffs = append(diffs, float64(s.EndNs-s.StartNs)/1e6-d)
		}
	}
	return median(diffs)
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// runTraced is the -trace pass of one workload.
func (b *bench) runTraced() (*result, error) {
	res := &result{workload: b.w.name, metrics: map[string]float64{}}
	m := res.metrics
	for _, s := range perLayer {
		m[s.Name] = 0
	}
	tr := newTracer()
	b.tr = tr

	// Daemon replay: two repetitions of the block, the first untraced,
	// the second with an "http" span per operation.
	b.reps = 2
	var err error
	if b.ver, err = newVerifier(b.env, b.sch, b.reps); err != nil {
		return nil, err
	}
	defer b.ver.close()
	state, err := b.newState()
	if err != nil {
		return nil, err
	}
	bt, err := b.boot(state, "trace", 0)
	if err != nil {
		return nil, err
	}
	d := bt.d
	defer os.RemoveAll(state)
	defer d.kill()
	if err := b.warmUp(d); err != nil {
		return nil, err
	}
	st0, err := fetchStats(b.hc, d.url)
	if err != nil {
		return nil, err
	}
	ph := b.measure(d)
	c, err := waitQuiet(b.hc, d.url)
	if err != nil {
		return nil, err
	}
	c = c.sub(countersOf(st0))
	d.kill()
	b.hc.CloseIdleConnections()

	res.attempted, res.failed = ph.attempted, ph.failed
	res.ok = ph.failed == 0
	res.notes = append(res.notes, ph.failures...)
	m["server.coalesce_width"] = ratio(float64(c.batchedRequests), float64(c.batches))
	m["server.shed_pct"] = 100 * ratio(float64(c.shed), float64(c.received))
	m["server.timeout_pct"] = 100 * ratio(float64(c.timeouts), float64(c.received))
	m["engine.dedup_hit_ratio"] = ratio(float64(c.dedup), float64(c.queries))
	m["engine.prepared_shared_ratio"] = ratio(float64(c.shared), float64(c.queries))
	m["engine.pyramid_folds"] = float64(c.folds)
	m["engine.compactions"] = float64(c.compactions)
	pass := func(r int) []float64 {
		var xs []float64
		for _, slots := range ph.ops {
			for _, reps := range slots {
				if r < len(reps) && reps[r].ok {
					xs = append(xs, reps[r].wallMs*reps[r].factor)
				}
			}
		}
		return xs
	}
	untraced, traced := median(pass(0)), median(pass(1))
	m["trace.overhead_pct"] = 100 * (ratio(traced, untraced) - 1)
	q1, q3 := quartiles(ph.factors)
	m["host.speed_factor_p50"] = median(ph.factors)
	m["host.speed_factor_iqr"] = q3 - q1
	m["raw.latency_p50_ms"] = bandMean(ph.typical(func(o obs) float64 { return o.wallMs }), 50)
	m["raw.throughput_ops_s"] = ratio(float64(ph.attempted-ph.failed)/float64(b.reps), ph.blockMs(func(r roundObs) float64 { return r.wallMs })/1000)

	if err := b.traceLayers(tr, m); err != nil {
		return nil, err
	}
	out := filepath.Join(b.cfg.outDir, "trace-"+b.w.name+".json")
	if err := tr.write(out); err != nil {
		return nil, err
	}
	res.notes = append(res.notes,
		fmt.Sprintf("%d spans written to %s", len(tr.spans), out),
		"metrics derived only from counters (*_per_op, dssearch.*_ratio, sweep.flat_strip_ratio, gridindex.cells_searched_ratio, kernel.max_heap, engine.pyramid_folds, engine.compactions, wal.bytes_per_object) repeat exactly for a seed on the one-worker, one-client workloads")
	return res, nil
}

// tracedBinding records a span around every backend round a stream
// issues.
type tracedBinding struct {
	query.Binding
	tr *tracer
	op string
}

func (tb tracedBinding) Query(ctx context.Context, req asrs.QueryRequest) (resp asrs.QueryResponse, cov *wire.Coverage) {
	tb.tr.time("engine.query", tb.op, "query.exec", func() { resp, cov = tb.Binding.Query(ctx, req) })
	return resp, cov
}

// traceLayers calls into each layer in-process with the workload's
// distinct operations.
func (b *bench) traceLayers(tr *tracer, m map[string]float64) error {
	ctx := context.Background()
	env := b.env
	dir := filepath.Join(b.cfg.tmp, b.w.name+"-layers")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sharded := b.sch.cuts != nil
	f := env.composites[b.w.composite]
	opt := asrs.Options{Workers: b.workers}

	// Build cost of what a cold boot builds, piece by piece.
	var (
		idx *asrs.Index
		pyr *asrs.Pyramid
		err error
	)
	m["gridindex.build_ms"] = tr.time("gridindex.build", "", "", func() { idx, err = asrs.NewIndex(env.ds, f, 64, 64) })
	if err != nil {
		return err
	}
	m["dssearch.pyramid_build_ms"] = tr.time("dssearch.pyramid_build", "", "", func() { pyr, err = asrs.BuildPyramid(env.ds, f) })
	if err != nil {
		return err
	}
	pyrPath := filepath.Join(dir, "pyr")
	m["persist.pyramid_save_ms"] = tr.time("persist.pyramid_save", "", "", func() { err = persist.SavePyramid(pyrPath, pyr) })
	if err != nil {
		return err
	}
	if info, serr := os.Stat(pyrPath); serr == nil {
		m["persist.pyramid_mb"] = float64(info.Size()) / (1 << 20)
	}
	m["persist.pyramid_load_ms"] = tr.time("persist.pyramid_load", "", "", func() { _, err = persist.LoadPyramid(pyrPath, env.ds, f) })
	if err != nil {
		return err
	}
	eng, err := asrs.NewEngine(env.ds, asrs.EngineOptions{IndexGranularity: 64, Search: opt})
	if err != nil {
		return err
	}
	defer eng.Close()
	if err := eng.SetPyramid(pyr); err != nil {
		return err
	}
	m["engine.warm_ms"] = tr.time("engine.warm", "", "", func() { err = eng.Warm(f) })
	if err != nil {
		return err
	}
	scfg := server.Config{Engine: eng, Composites: env.composites, Window: server.DefaultWindow}
	var router *shard.Router
	if sharded {
		var cat *shard.Catalog
		m["shard.catalog_build_ms"] = tr.time("shard.catalog_build", "", "", func() {
			cat, err = shard.New(env.ds, shard.Config{
				Shards: ingestShards, Engine: asrs.EngineOptions{IndexGranularity: 64, Search: opt},
				Composites: env.composites, Names: env.names, PyramidBase: filepath.Join(dir, "shardpyr"),
			})
			if err == nil {
				err = cat.WarmAll()
			}
		})
		if err != nil {
			return err
		}
		defer cat.Close()
		router = shard.NewRouter(cat, shard.RouterOptions{})
		scfg.Engine, scfg.Router = nil, router
	}
	srv, err := server.New(scfg)
	if err != nil {
		return err
	}
	defer srv.Shutdown(ctx)
	handler := srv.Handler()
	planner := query.NewPlanner(env.ds.Schema, env.composites)

	var (
		stats    dssearch.Stats
		cells    [2]int // searched, considered
		nSearch  int
		fanout   int
		rounds   []float64
		firstRow []float64
		routed   = map[string][]float64{}
		merged   []float64 // merged-engine time of straddling extents
	)
	for i := range b.sch.ops {
		o := &b.sch.ops[i]
		id := fmt.Sprintf("%s%d", o.class, i)
		req, err := libRequest(env, planner, o)
		if err != nil {
			return err
		}
		// server: the whole handler, in-process.
		var status int
		tr.time("server.handler", id, "http", func() {
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, o.kind.path(), bytes.NewReader(o.body)))
			status = rec.Code
		})
		if status != http.StatusOK {
			return fmt.Errorf("in-process handler answered %s with HTTP %d", id, status)
		}

		// The call the handler makes one layer down.
		switch {
		case o.kind == kindSearch:
			var pl *query.Plan
			tr.time("query.parse_plan", id, "server.handler", func() { pl, err = planner.ParseAndPlan(o.text) })
			if err != nil {
				return err
			}
			var st *query.Stream
			start := time.Now()
			tr.time("query.exec", id, "server.handler", func() {
				if st, err = query.Exec(ctx, pl, tracedBinding{query.EngineBinding{E: eng}, tr, id}); err != nil {
					return
				}
				for n := 0; ; n++ {
					if _, ok := st.Next(); !ok {
						break
					}
					if n == 0 {
						firstRow = append(firstRow, ms(time.Since(start)))
					}
				}
				err = st.Err()
			})
			if err != nil {
				return err
			}
			rounds = append(rounds, float64(st.Rounds()))
			tr.time("engine.query_oneshot", id, "", func() { err = eng.QueryCtx(ctx, req).Err })
			if err != nil {
				return err
			}
		case sharded:
			var resp shard.Response
			d := tr.time("shard.router", id, "server.handler", func() {
				resp = router.Query(ctx, shard.Request{Query: req.Query, A: req.A, B: req.B, Extent: req.Within})
			})
			if resp.Err != nil {
				return resp.Err
			}
			routed[o.class] = append(routed[o.class], d)
			fanout += len(resp.Coverage.Searched)
			d = tr.time("engine.query", id, "", func() { err = eng.QueryCtx(ctx, req).Err })
			if err != nil {
				return err
			}
			if o.class == "straddle" {
				merged = append(merged, d)
			}
		default:
			tr.time("engine.query", id, "server.handler", func() { err = eng.QueryCtx(ctx, req).Err })
			if err != nil {
				return err
			}
		}

		// engine → dssearch: the first-row search with the engine's own
		// index and pyramid for this composite (the engine built them for
		// an inline composite during the calls above).
		first := req
		first.TopK = 0
		F := first.Query.F
		fidx, fpyr := idx, pyr
		if F != f {
			if fidx, err = eng.Index(F); err != nil {
				return err
			}
			if fpyr, err = eng.Pyramid(F); err != nil {
				return err
			}
		}
		tr.time("engine.prepare", id, "engine.query", func() { fpyr.Prepare(first.A, first.B) })
		with, without := opt, opt
		with.Pyramid = fpyr
		if first.Within != nil {
			var st dssearch.Stats
			tr.time("dssearch.search", id, "engine.query", func() {
				_, _, st, err = asrs.SearchWithin(env.ds, first.A, first.B, first.Query, *first.Within, nil, with)
			})
			if err != nil {
				return err
			}
			addStats(&stats, st)
			tr.time("dssearch.search_nopyramid", id, "", func() {
				_, _, _, err = asrs.SearchWithin(env.ds, first.A, first.B, first.Query, *first.Within, nil, without)
			})
		} else {
			var ist asrs.IndexStats
			tr.time("dssearch.search", id, "engine.query", func() {
				_, _, ist, err = asrs.SearchWithIndex(fidx, env.ds, first.A, first.B, first.Query, with)
			})
			if err != nil {
				return err
			}
			addStats(&stats, ist.DS)
			cells[0] += ist.CellsSearched
			cells[1] += ist.Cells
			tr.time("dssearch.search_plain", id, "", func() {
				_, _, _, err = asrs.Search(env.ds, first.A, first.B, first.Query, with)
			})
			if err != nil {
				return err
			}
			tr.time("dssearch.search_nopyramid", id, "", func() {
				_, _, _, err = asrs.SearchWithIndex(fidx, env.ds, first.A, first.B, first.Query, without)
			})
		}
		if err != nil {
			return err
		}
		nSearch++
	}

	n := float64(nSearch)
	backend := "engine.query"
	switch {
	case sharded:
		backend = "shard.router"
	case b.sch.ops[0].kind == kindSearch:
		backend = "query.exec"
	}
	m["server.self_ms_p50"] = tr.selfMs("server.handler", backend)
	m["server.socket_ms_p50"] = tr.selfMs("http", "server.handler")
	m["engine.self_ms_p50"] = tr.selfMs("engine.query", "dssearch.search")
	m["engine.prepare_us_p50"] = 1000 * median(tr.ms("engine.prepare"))
	m["dssearch.search_ms_p50"] = median(tr.ms("dssearch.search"))
	m["dssearch.nopyramid_ratio"] = ratio(median(tr.ms("dssearch.search_nopyramid")), median(tr.ms("dssearch.search")))
	m["gridindex.search_vs_plain_ratio"] = ratio(median(tr.ms("dssearch.search")), median(tr.ms("dssearch.search_plain")))
	m["gridindex.cells_searched_ratio"] = ratio(float64(cells[0]), float64(cells[1]))
	m["dssearch.discretizations_per_op"] = float64(stats.Discretizations) / n
	m["dssearch.sat_fill_ratio"] = ratio(float64(stats.SATFills), float64(stats.Discretizations))
	m["dssearch.splits_per_op"] = float64(stats.Splits) / n
	m["dssearch.pruned_cell_ratio"] = ratio(float64(stats.PrunedCells), float64(stats.DirtyCells))
	m["dssearch.refined_cells_per_op"] = float64(stats.RefinedCells) / n
	m["dssearch.minisweeps_per_op"] = float64(stats.MiniSweeps) / n
	m["dssearch.minisweep_rects_per_op"] = float64(stats.MiniSweepRects) / n
	m["kernel.heap_pushes_per_op"] = float64(stats.HeapPushes) / n
	m["kernel.max_heap"] = float64(stats.MaxHeapSize)
	m["kernel.steals_per_op"] = float64(stats.Steals) / n
	m["sweep.flat_strip_ratio"] = ratio(float64(stats.FlatStrips), float64(stats.FlatStrips+stats.FenwickStrips))
	if len(rounds) > 0 {
		m["query.parse_plan_us_p50"] = 1000 * median(tr.ms("query.parse_plan"))
		m["query.rounds_per_op"] = median(rounds)
		m["query.first_row_share"] = ratio(median(firstRow), median(tr.ms("query.exec")))
		m["query.stream_vs_oneshot_ratio"] = ratio(median(tr.ms("query.exec")), median(tr.ms("engine.query_oneshot")))
	}
	if sharded {
		m["shard.contained_ms_p50"] = median(routed["contained"])
		m["shard.straddle_ms_p50"] = median(routed["straddle"])
		m["shard.fanout_per_op"] = ratio(float64(fanout), float64(nSearch))
		m["shard.straddle_vs_merged_ratio"] = ratio(median(routed["straddle"]), median(merged))
	}

	if err := traceMicro(tr, m, env, f, pyr, b.sch.ops, planner, dir); err != nil {
		return err
	}

	// Last, because they change the engine's corpus: the cost of an
	// insert through the handler, and of the first query after one.
	probe, err := libRequest(env, planner, &b.sch.ops[0])
	if err != nil {
		return err
	}
	probe.TopK = 0
	var before []float64
	for i := 0; i < 3; i++ {
		before = append(before, tr.time("engine.query_steady", "probe", "", func() { err = eng.QueryCtx(ctx, probe).Err }))
	}
	if err != nil {
		return err
	}
	batch := env.ds.Objects[:min(ingestBatch, len(env.ds.Objects))]
	if err := eng.InsertBatch(batch); err != nil {
		return err
	}
	after := tr.time("engine.query_after_insert", "probe", "", func() { err = eng.QueryCtx(ctx, probe).Err })
	if err != nil {
		return err
	}
	m["engine.first_query_after_insert_ratio"] = ratio(after, median(before))
	body := insertBody(env, batch)
	var inserts []float64
	for i := 0; i < 3; i++ {
		var status int
		inserts = append(inserts, tr.time("server.insert", fmt.Sprint(i), "", func() {
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/insert", bytes.NewReader(body)))
			status = rec.Code
		}))
		if status != http.StatusOK {
			return fmt.Errorf("in-process insert answered HTTP %d", status)
		}
	}
	m["server.insert_ms_p50"] = median(inserts)
	return nil
}

// traceMicro times the layers no request reaches on its own: the bare
// kernel loop, one sweep, the WAL, snapshots and the delta fold.
func traceMicro(tr *tracer, m map[string]float64, env *servingEnv, f *asrs.Composite, pyr *asrs.Pyramid, ops []op, planner *query.Planner, dir string) error {
	// kernel.Run over a binary tree of 2^14 no-op items.
	const depth = 14
	for _, workers := range []int{1, 2} {
		process := func(_ int, it kernel.Item, incumbent asrs.Result, emit func(kernel.Item)) asrs.Result {
			if it.LB < depth {
				emit(kernel.Item{LB: it.LB + 1})
				emit(kernel.Item{LB: it.LB + 1})
			}
			return incumbent
		}
		bound := kernel.NewBound(0, asrs.Result{Dist: math.Inf(1)})
		var pushes int
		d := tr.time("kernel.run", fmt.Sprintf("w%d", workers), "", func() {
			pushes, _, _ = kernel.Run(workers, 0, []kernel.Item{{}}, bound, process, nil)
		})
		m[fmt.Sprintf("kernel.run_ns_per_item_w%d", workers)] = ratio(d*1e6, float64(pushes))
	}

	// One sweep over a fixed 2k-rectangle sample of the first op's
	// reduction (every (n/2000)-th rectangle).
	req, err := libRequest(env, planner, &ops[0])
	if err != nil {
		return err
	}
	rects, err := dssearch.ReduceForSearch(env.ds, req.A, req.B, req.Query.F, asrs.Options{})
	if err != nil {
		return err
	}
	stride := max(1, len(rects)/2000)
	sample := rects[:0:0]
	for i := 0; i < len(rects) && len(sample) < 2000; i += stride {
		sample = append(sample, rects[i])
	}
	solver, err := sweep.New(sample, req.Query)
	if err != nil {
		return err
	}
	d := tr.time("sweep.solve", "", "", func() { solver.Solve() })
	m["sweep.solve_us_per_rect"] = ratio(d*1000, float64(len(sample)))

	// WAL: 32 records of 128 objects, synced per record as -wal-sync
	// batch does, then replayed.
	walDir := filepath.Join(dir, "wal")
	log, err := wal.Open(walDir, wal.Options{Sync: wal.SyncBatch}, nil)
	if err != nil {
		return err
	}
	const records = 32
	objs := env.ds.Objects[:min(ingestBatch, len(env.ds.Objects))]
	payload := persist.EncodeObjects(env.ds.Schema, objs)
	var appendErr error
	d = tr.time("wal.append", "", "", func() {
		for i := 0; i < records && appendErr == nil; i++ {
			if _, appendErr = log.Append(payload); appendErr == nil {
				appendErr = log.Sync()
			}
		}
	})
	if appendErr != nil {
		log.Close()
		return appendErr
	}
	if err := log.Close(); err != nil {
		return err
	}
	m["wal.append_us_per_batch"] = d * 1000 / records
	if size, err := dirBytes(walDir); err == nil {
		m["wal.bytes_per_object"] = float64(size) / float64(records*len(objs))
	}
	var replayErr error
	m["wal.replay_ms"] = tr.time("wal.replay", "", "", func() {
		var l *wal.Log
		l, replayErr = wal.Open(walDir, wal.Options{Sync: wal.SyncBatch}, func(_ uint64, p []byte) error {
			_, err := persist.DecodeObjects(env.ds.Schema, p)
			return err
		})
		if replayErr == nil {
			replayErr = l.Close()
		}
	})
	if replayErr != nil {
		return replayErr
	}

	snap := env.ds.Objects[:min(4096, len(env.ds.Objects))]
	m["persist.snapshot_save_ms"] = tr.time("persist.snapshot_save", "", "", func() {
		err = persist.SaveIngestSnapshot(filepath.Join(dir, "ingest.snap"), env.ds.Schema, snap, 1)
	})
	if err != nil {
		return err
	}

	combined := &asrs.Dataset{Schema: env.ds.Schema, Objects: append(append([]asrs.Object(nil), env.ds.Objects...), objs...)}
	m["dssearch.delta_fold_ms"] = tr.time("dssearch.delta_fold", "", "", func() { _, _, err = dssearch.BuildPyramidDelta(pyr, combined) })
	return err
}

func addStats(dst *dssearch.Stats, s dssearch.Stats) {
	dst.Discretizations += s.Discretizations
	dst.SATFills += s.SATFills
	dst.Splits += s.Splits
	dst.DirtyCells += s.DirtyCells
	dst.PrunedCells += s.PrunedCells
	dst.MiniSweeps += s.MiniSweeps
	dst.MiniSweepRects += s.MiniSweepRects
	dst.FlatStrips += s.FlatStrips
	dst.FenwickStrips += s.FenwickStrips
	dst.RefinedCells += s.RefinedCells
	dst.HeapPushes += s.HeapPushes
	dst.Steals += s.Steals
	dst.MaxHeapSize = max(dst.MaxHeapSize, s.MaxHeapSize)
}
