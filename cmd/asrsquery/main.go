// Command asrsquery runs a single attribute-aware similar region search
// over a generated corpus and prints the answer. It demonstrates the
// library end to end without needing external data: every canned query
// is one asrs.QueryRequest, and -algo only decides whether the library's
// one driver is handed a grid index (gids), none (ds), or the request
// goes to the sweep-line oracle (base).
//
// Usage:
//
//	asrsquery -dataset tweet -n 100000 -k 10            # weekend-hotspot query (F1)
//	asrsquery -dataset poisyn -n 100000 -k 7 -delta 0.2 # popular-and-good query (F2), approximate
//	asrsquery -dataset singapore                        # query-by-example: Orchard → ? (the example region excluded)
//	asrsquery -dataset tweet -algo base -n 3000         # sweep-line baseline
//	asrsquery -dataset tweet -algo gids -grid 128       # grid-index accelerated
//	asrsquery -dataset singapore -algo gids -grid 64 -debug # Orchard → ? through GI-DS cut around the example, with its counters
//	asrsquery -dataset tweet -pyramid on                # bind an aggregate pyramid built before the clock starts
//	asrsquery -dataset singapore -json                  # machine-readable output (the asrsd wire schema)
//	asrsquery -dataset singapore -q 'find top 3 similar to region(103.827,1.298,103.843,1.310) under @category excluding example'
//	asrsquery -dataset tweet -q 'explain find size 2 x 2 similar to target(0,0,0,0,0,1,1) under dist(day)'
//	asrsquery -dataset tweet -n 20000 -cpuprofile cpu.pprof  # then: go tool pprof cpu.pprof
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"asrs"
	"asrs/internal/dataset"
	"asrs/internal/gridindex"
	"asrs/internal/query"
	"asrs/internal/wire"
)

func main() {
	var (
		dsName  = flag.String("dataset", "tweet", "tweet | poisyn | singapore")
		n       = flag.Int("n", 100000, "number of generated objects (tweet/poisyn)")
		k       = flag.Int("k", 10, "query size multiplier: region is k·(W/1000) × k·(H/1000)")
		algo    = flag.String("algo", "ds", "ds | gids | base")
		grid    = flag.Int("grid", 128, "grid index granularity (gids only)")
		delta   = flag.Float64("delta", 0, "approximation parameter δ (0 = exact)")
		seed    = flag.Int64("seed", 42, "dataset seed")
		_       = flag.Int("workers", 0, "inert: the search runs on one goroutine; kept for scripts that pass it")
		pyrPath = flag.String("pyramid", "", "any non-empty value binds the composite's aggregate pyramid, built in memory before the clock starts, instead of the search building a one-shot pyramid of its own (the value is not read as a path; nothing is stored); answers are identical either way")
		jsonOut = flag.Bool("json", false, "emit the answer as JSON in the asrsd wire schema (one format for CLI and daemon)")
		qText   = flag.String("q", "", "run a query-language expression over the chosen dataset instead of the canned query (see README \"Query language\"; 'explain …' prints the plan report). Results stream as they are found; with -json each row is one NDJSON line, the same rows POST /v1/search would send")
		debug   = flag.Bool("debug", false, "print search work counters: cells, the terminal rule's mini-sweeps and the strips and intervals they scored (DESIGN.md §8), the heap")
		cpuProf = flag.String("cpuprofile", "", "write a pprof CPU profile of the search to this file: what the elapsed time covers, not the corpus, pyramid or index build")
	)
	flag.Parse()

	if *qText != "" {
		if err := runExpr(*dsName, *n, *seed, *qText, *jsonOut, *cpuProf); err != nil {
			fmt.Fprintln(os.Stderr, "asrsquery:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*dsName, *n, *k, *algo, *grid, *delta, *seed, *pyrPath, *jsonOut, *debug, *cpuProf); err != nil {
		fmt.Fprintln(os.Stderr, "asrsquery:", err)
		os.Exit(1)
	}
}

// emitJSON prints the answer in the server wire schema — the same
// document shape POST /v1/query returns for this query (indented here
// for terminals; elapsed_ms naturally differs per run).
func emitJSON(resp asrs.QueryResponse, elapsed time.Duration) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(wire.ResponseWire(resp, elapsed))
}

// startCPUProfile starts a CPU profile written to path, or nothing for an
// empty path. The returned stop ends the profile and closes the file; it
// is safe to call more than once.
func startCPUProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	done := false
	return func() error {
		if done {
			return nil
		}
		done = true
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// infof prints an informational line: to stdout normally, to stderr in
// -json mode so stdout stays a single machine-readable document.
var infoOut = os.Stdout

func infof(format string, args ...any) { fmt.Fprintf(infoOut, format, args...) }

// debugStats prints the per-search work counters: how the space was
// processed, which evaluator the strip cost model picked per dirty strip
// of the mini-sweeps, and how many intervals they scored and strips their
// bound skipped.
func debugStats(stats asrs.SearchStats) {
	infof("discretizations: %d, splits: %d, bisections: %d\n",
		stats.Discretizations, stats.Splits, stats.Bisections)
	infof("cells: %d clean, %d dirty (%d pruned, %d center probes)\n",
		stats.CleanCells, stats.DirtyCells, stats.PrunedCells, stats.CenterProbes)
	if stats.CleanCells > 0 {
		// The clean-cell memo's bet is that clean cells come in runs of
		// identical totals; this is how often it paid.
		infof("clean cells evaluated: %d (%.1f%% of clean; the rest repeated the previous cell's totals)\n",
			stats.CleanEvals, 100*float64(stats.CleanEvals)/float64(stats.CleanCells))
	}
	infof("mini-sweeps: %d over %d rects (+%d containing the swept space, folded into its base vector); strips scored: %d\n",
		stats.MiniSweeps, stats.MiniSweepRects, stats.SweepBaseRects, stats.FlatStrips)
	infof("mini-sweep intervals scored: %d; strips skipped by their bound: %d\n", stats.SweepScored, stats.PrunedStrips)
	infof("heap: %d pushes (max %d)\n", stats.HeapPushes, stats.MaxHeapSize)
}

// indexStats prints the GI-DS cell counters; with debug also how many
// cell ranges the best-first loop bounded, how the searched area was cut
// — pieces actually handed to DS-Search (margin strips and cells, each
// cut around the exclusions), the rectangle ids the index's cells handed
// their filter, and cells passed over because exclusions forbid them
// whole — and where the two margin strips stood in the
// best-first order: their lower bounds, and how many the search ended
// without reaching.
func indexStats(grid int, stats asrs.IndexStats, debug bool) {
	infof("index: %dx%d, %d/%d cells searched\n", grid, grid, stats.CellsSearched, stats.Cells)
	if debug {
		infof("index ranges bounded: %d\n", stats.Bounded)
		infof("index pieces: %d searched (%d on the margins), %d cells wholly excluded; %d ids from their cells\n",
			stats.Pieces, stats.MarginRuns, stats.CellsExcluded, stats.CellIDs)
		infof("margin strips: lower bound %g left, %g bottom; %d never searched\n",
			stats.LeftMarginLB, stats.BottomMarginLB, stats.MarginsSkipped)
	}
}

// run builds the canned request of the chosen dataset — for singapore the
// §7.6 case study, query by example with the example region excluded —
// and answers it: DS-Search and GI-DS through the library's one driver
// (with and without an index), the baseline through its own sweep.
func run(dsName string, n, k int, algo string, grid int, delta float64, seed int64, pyrPath string, jsonOut, debug bool, cpuProf string) error {
	if jsonOut {
		infoOut = os.Stderr
	}
	var (
		ds  *asrs.Dataset
		req asrs.QueryRequest
		err error
	)
	switch dsName {
	case "tweet":
		ds = dataset.Tweet(n, seed)
		req.A, req.B = scaledSize(ds, k)
		req.Query, err = dataset.F1(ds, req.A, req.B)
	case "poisyn":
		ds = dataset.POISyn(n, seed)
		req.A, req.B = scaledSize(ds, k)
		req.Query, err = dataset.F2(ds, req.A, req.B)
	case "singapore":
		ds = dataset.SingaporePOI(seed)
		orchard := dataset.SingaporeDistricts()[0].Rect
		var f *asrs.Composite
		if f, err = asrs.NewComposite(ds.Schema, asrs.AggSpec{Kind: asrs.Distribution, Attr: "category"}); err != nil {
			return err
		}
		req.A, req.B, req.Exclude = orchard.Width(), orchard.Height(), []asrs.Rect{orchard}
		req.Query, err = asrs.QueryFromRegion(ds, f, nil, orchard)
		infof("query region (Orchard): %v\n", orchard)
	default:
		return fmt.Errorf("unknown dataset %q", dsName)
	}
	if err != nil {
		return err
	}
	infof("dataset=%s n=%d query=%.4gx%.4g algo=%s δ=%g\n", dsName, len(ds.Objects), req.A, req.B, algo, delta)

	opt := asrs.Options{Delta: delta}
	if pyrPath != "" && algo != "base" {
		if opt.Pyramid, err = asrs.BuildPyramid(ds, req.Query.F); err != nil {
			return err
		}
		infof("pyramid:        built (%d objects)\n", opt.Pyramid.Objects())
	}
	req.Options = &opt
	// The index is built before the clock starts, as a serving engine
	// builds it before the queries it serves: binned from the bound
	// pyramid, or from one asrs.NewIndex builds.
	var idx *asrs.Index
	if algo == "gids" {
		build := time.Now()
		if opt.Pyramid != nil {
			idx, err = gridindex.New(opt.Pyramid, grid, grid)
		} else {
			idx, err = asrs.NewIndex(ds, req.Query.F, grid, grid)
		}
		if err != nil {
			return err
		}
		infof("index build:    %v\n", time.Since(build).Round(time.Millisecond))
	}

	stopProf, err := startCPUProfile(cpuProf)
	if err != nil {
		return err
	}
	defer stopProf()
	start := time.Now()
	var resp asrs.QueryResponse
	switch algo {
	case "ds", "gids":
		var stats asrs.IndexStats
		if resp, stats = asrs.Answer(ds, idx, req); resp.Err != nil {
			return resp.Err
		}
		if idx != nil {
			indexStats(grid, stats, debug)
		}
		if debug {
			debugStats(stats.DS)
		}
	case "base":
		if resp = asrs.SearchBaseline(ds, req); resp.Err != nil {
			return resp.Err
		}
	default:
		return fmt.Errorf("unknown algorithm %q", algo)
	}
	if err := stopProf(); err != nil {
		return err
	}
	if jsonOut {
		return emitJSON(resp, time.Since(start))
	}
	region, res := resp.Best()
	fmt.Printf("answer region:  %v\n", region)
	fmt.Printf("distance:       %.4f\n", res.Dist)
	fmt.Printf("representation: %.4g\n", res.Rep)
	fmt.Printf("elapsed:        %v\n", time.Since(start).Round(time.Millisecond))
	if dsName == "singapore" {
		for _, d := range dataset.SingaporeDistricts()[1:] {
			if region.Intersects(d.Rect) {
				fmt.Printf("→ that's %q\n", d.Name)
			}
		}
	}
	return nil
}

// runExpr serves a query-language expression from the CLI: the same
// parse → plan → lazy-stream pipeline as POST /v1/search, over a local
// engine. Rows print as each greedy round finishes.
func runExpr(dsName string, n int, seed int64, src string, jsonOut bool, cpuProf string) error {
	if jsonOut {
		infoOut = os.Stderr
	}
	var (
		ds    *asrs.Dataset
		named map[string]*asrs.Composite
	)
	switch dsName {
	case "tweet":
		ds = dataset.Tweet(n, seed)
	case "poisyn":
		ds = dataset.POISyn(n, seed)
	case "singapore":
		ds = dataset.SingaporePOI(seed)
		f, err := asrs.NewComposite(ds.Schema, asrs.AggSpec{Kind: asrs.Distribution, Attr: "category"})
		if err != nil {
			return err
		}
		named = map[string]*asrs.Composite{"category": f}
	default:
		return fmt.Errorf("unknown dataset %q", dsName)
	}

	p := query.NewPlanner(ds.Schema, named)
	pl, err := p.ParseAndPlan(src)
	if err != nil {
		return err
	}
	eng, err := asrs.NewEngine(ds, asrs.EngineOptions{})
	if err != nil {
		return err
	}
	if pl.Explain {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(pl.Report(eng.CurrentDataset(), false))
	}

	infof("dataset=%s n=%d canonical=%q\n", dsName, len(ds.Objects), pl.Canonical)
	stopProf, err := startCPUProfile(cpuProf)
	if err != nil {
		return err
	}
	defer stopProf()
	start := time.Now()
	st, err := query.Exec(context.Background(), pl, query.EngineBinding{E: eng})
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	count := 0
	for {
		row, ok := st.Next()
		if !ok {
			break
		}
		count++
		if jsonOut {
			enc.Encode(wire.SearchRow{
				Rank: row.Rank,
				Result: &wire.Result{
					Region: wire.RectWire(row.Region),
					Point:  wire.Point{X: row.Result.Point.X, Y: row.Result.Point.Y},
					Dist:   row.Result.Dist,
					Rep:    row.Result.Rep,
				},
			})
			continue
		}
		fmt.Printf("#%d region %v  dist %.4f\n", row.Rank, row.Region, row.Result.Dist)
	}
	if err := st.Err(); err != nil {
		return err
	}
	if err := stopProf(); err != nil {
		return err
	}
	if jsonOut {
		return enc.Encode(wire.SearchRow{Done: true, Count: count,
			ElapsedMS: float64(time.Since(start).Microseconds()) / 1e3})
	}
	infof("%d rows in %v\n", count, time.Since(start).Round(time.Millisecond))
	return nil
}

func scaledSize(ds *asrs.Dataset, k int) (float64, float64) {
	bounds := ds.Bounds()
	return float64(k) * bounds.Width() / 1000, float64(k) * bounds.Height() / 1000
}
