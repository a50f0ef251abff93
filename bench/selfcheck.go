package main

import (
	"fmt"
	"os"
)

// rawTwin names the un-normalised twin of a normalised metric, printed
// beside it so the table shows what calibration buys.
var rawTwin = map[string]string{
	"setup_s":          "raw.setup_s",
	"restart_s":        "raw.restart_s",
	"throughput_ops_s": "raw.throughput_ops_s",
	"latency_p50_ms":   "raw.latency_p50_ms",
	"latency_p90_ms":   "raw.latency_p90_ms",
	"cpu_ms_per_op":    "raw.cpu_ms_per_op",
}

// runSelfcheck is the A/A test: two back-to-back sets of runs of the
// same code, each run with another seed as the benchmark contract does
// it. Per workload × end-to-end metric it prints both medians, how much
// worse the second is than the first, each set's interquartile and
// min–max spread as a share of its median, and the bound. It fails when
// a gap or an interquartile spread exceeds the metric's bound — the
// acceptance rule of the contract — and marks (without failing) spreads
// above a third of the bound, the margin the bounds were chosen for.
// The output is Markdown: CALIBRATION.md is this table.
func runSelfcheck(cfg runConfig, ws []*workload, runs int) error {
	if runs < 2 {
		return fmt.Errorf("-selfcheck needs at least 2 runs per set")
	}
	type key struct {
		w, metric string
		set       int
	}
	values := map[key][]float64{}
	for set := 0; set < 2; set++ {
		for run := 0; run < runs; run++ {
			for _, w := range ws {
				c := cfg
				c.seed = cfg.seed + int64(run)
				res, _, err := runOne(c, w, false)
				if err != nil {
					return fmt.Errorf("%s set %d run %d: %w", w.name, set, run, err)
				}
				if !res.ok {
					return fmt.Errorf("%s set %d run %d: %d of %d operations failed: %v", w.name, set, run, res.failed, res.attempted, res.notes)
				}
				for name, v := range res.metrics {
					values[key{w.name, name, set}] = append(values[key{w.name, name, set}], v)
				}
				fmt.Fprintf(os.Stderr, "selfcheck: set %d run %d %s done\n", set+1, run+1, w.name)
			}
		}
	}

	failed := false
	fmt.Printf("\nTwo sets of %d runs (seeds %d..%d), %.0f s nominal each. gap = how much worse set 2's median is than set 1's; iqr and range are shares of the set's median; raw = the same metric without host-speed normalisation.\n",
		runs, cfg.seed, cfg.seed+int64(runs)-1, cfg.seconds)
	for _, w := range ws {
		fmt.Printf("\n### %s\n\n", w.name)
		fmt.Println("| metric | unit | median 1 | median 2 | gap | iqr 1 | iqr 2 | range 1 | range 2 | raw iqr 1 | raw iqr 2 | bound | verdict |")
		fmt.Println("|---|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---|")
		for _, s := range endToEnd {
			a, b := values[key{w.name, s.Name, 0}], values[key{w.name, s.Name, 1}]
			ma, mb := median(a), median(b)
			gap := ratio(mb-ma, ma)
			if s.Better == "higher" {
				gap = -gap
			}
			ia, ib := iqrShare(a), iqrShare(b)
			verdict := "ok"
			switch {
			case gap > s.Bound || ia > s.Bound || ib > s.Bound:
				verdict = "FAIL"
				failed = true
			case ia > s.Bound/3 || ib > s.Bound/3:
				verdict = "ok (spread above a third of the bound)"
			}
			raw := "| | "
			if twin, ok := rawTwin[s.Name]; ok {
				raw = fmt.Sprintf("| %.1f%% | %.1f%% ", 100*iqrShare(values[key{w.name, twin, 0}]), 100*iqrShare(values[key{w.name, twin, 1}]))
			}
			fmt.Printf("| %s | %s | %.4g | %.4g | %+.1f%% | %.1f%% | %.1f%% | %.1f%% | %.1f%% %s| %.0f%% | %s |\n",
				s.Name, s.Unit, ma, mb, 100*gap, 100*ia, 100*ib, 100*rangeShare(a), 100*rangeShare(b), raw, 100*s.Bound, verdict)
		}
	}
	if err := checkExactCounters(cfg, ws); err != nil {
		return err
	}
	if failed {
		return fmt.Errorf("selfcheck failed: identical code disagrees with itself beyond a bound")
	}
	fmt.Println("\nselfcheck passed: every gap and every interquartile spread is within its bound.")
	return nil
}

// exactCounters are the per-layer metrics derived only from counters.
// With one kernel worker and one client nothing in them depends on
// timing, so two traced passes of one seed must agree to the last digit.
var exactCounters = []string{
	"dssearch.discretizations_per_op", "dssearch.sat_fill_ratio", "dssearch.splits_per_op",
	"dssearch.pruned_cell_ratio", "dssearch.refined_cells_per_op", "dssearch.minisweeps_per_op",
	"dssearch.minisweep_rects_per_op", "kernel.heap_pushes_per_op", "kernel.max_heap",
	"sweep.flat_strip_ratio", "gridindex.cells_searched_ratio", "shard.fanout_per_op",
	"engine.pyramid_folds", "engine.compactions", "wal.bytes_per_object", "query.rounds_per_op",
}

// checkExactCounters runs the traced pass twice per workload and
// compares the counter-derived metrics. Workloads with two workers or
// two clients are listed too but only reported: their kernel schedule
// is deterministic in its answers, not in its counters.
func checkExactCounters(cfg runConfig, ws []*workload) error {
	fmt.Printf("\n### counters that must repeat exactly\n\n")
	var bad []string
	for _, w := range ws {
		var runs [2]*result
		for i := range runs {
			res, _, err := runOne(cfg, w, true)
			if err != nil {
				return fmt.Errorf("%s traced pass %d: %w", w.name, i+1, err)
			}
			runs[i] = res
		}
		strict := w.workers == 1 && w.clients == 1
		var diffs []string
		for _, name := range exactCounters {
			if a, b := runs[0].metrics[name], runs[1].metrics[name]; a != b {
				diffs = append(diffs, fmt.Sprintf("%s %v vs %v", name, a, b))
			}
		}
		switch {
		case len(diffs) == 0:
			fmt.Printf("- %s: all %d identical across two traced passes (trace.overhead_pct %+.1f%% and %+.1f%%)\n", w.name, len(exactCounters),
				runs[0].metrics["trace.overhead_pct"], runs[1].metrics["trace.overhead_pct"])
		case strict:
			fmt.Printf("- %s: DIFFER: %v\n", w.name, diffs)
			bad = append(bad, w.name)
		default:
			fmt.Printf("- %s (%d workers, %d clients; not required to repeat): differ in %v\n", w.name, w.workers, w.clients, diffs)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("selfcheck failed: counters of %v differ between two traced passes of one seed", bad)
	}
	return nil
}
