package harness

import (
	"fmt"

	"asrs"
	"asrs/internal/asp"
	"asrs/internal/gridindex"
)

// buildIndex constructs the index for a workload's composite aggregator.
// The composite comes from the workload query at a nominal size (the
// composite itself is size-independent; only targets vary).
func buildIndex(w workload, g int) (*gridindex.Index, error) {
	a, b := querySize(w.ds, 10)
	q, err := w.query(a, b)
	if err != nil {
		return nil, err
	}
	return gridindex.New(w.ds, q.F, g, g)
}

// indexCompat rebuilds a query against the composite an index was built
// with (gridindex.Solve requires pointer identity of the composite).
type indexedWorkload struct {
	workload
	idx *gridindex.Index
}

func indexWorkload(w workload, g int) (indexedWorkload, error) {
	a, b := querySize(w.ds, 10)
	q, err := w.query(a, b)
	if err != nil {
		return indexedWorkload{}, err
	}
	f := q.F
	idx, err := gridindex.New(w.ds, f, g, g)
	if err != nil {
		return indexedWorkload{}, err
	}
	iw := indexedWorkload{workload: w, idx: idx}
	// Reuse the index's composite for every query size: rebuild only the
	// target/weights.
	orig := w.query
	iw.workload.query = func(a, b float64) (asp.Query, error) {
		q, err := orig(a, b)
		if err != nil {
			return q, err
		}
		q.F = f
		return q, nil
	}
	return iw, nil
}

func init() {
	register(Experiment{
		Name:  "fig11",
		Paper: "Figure 11(a,b) — GI-DS vs DS-Search across index granularities",
		Desc:  "64/128/256 grid indices vs plain DS-Search, sizes q..10q (paper: 100M objects; scaled).",
		Run: func(cfg Config) error {
			n := cfg.scaled(100000)
			for _, w := range []workload{tweetWorkload(n, cfg.Seed), poiWorkload(n, cfg.Seed)} {
				fmt.Fprintf(cfg.Out, "[%s]\n", w.name)
				t := newTable(cfg.Out, "size", "DS (ms)", "64-GI-DS", "128-GI-DS", "256-GI-DS")
				iws := make([]indexedWorkload, 0, 3)
				for _, g := range []int{64, 128, 256} {
					iw, err := indexWorkload(w, g)
					if err != nil {
						return err
					}
					iws = append(iws, iw)
				}
				for _, k := range []int{1, 4, 7, 10} {
					dsMS, dsDist, _, err := runSearch(w, k, nil, asrs.Options{NCol: 30, NRow: 30})
					if err != nil {
						return err
					}
					cells := []any{fmt.Sprintf("%dq", k), dsMS}
					for _, iw := range iws {
						ms, dist, _, err := runSearch(iw.workload, k, iw.idx, asrs.Options{Delta: 0})
						if err != nil {
							return err
						}
						if mark := agreeMark(dsDist, dist); mark != "yes" {
							return fmt.Errorf("fig11: GI-DS disagrees with DS-Search: %s", mark)
						}
						cells = append(cells, ms)
					}
					t.row(cells...)
				}
			}
			return nil
		},
	})

	register(Experiment{
		Name:  "table1",
		Paper: "Table 1 — ratio of index cells searched and index size",
		Desc:  "Granularity 64/128/256 × sizes q..10q on Tweet (paper: 100M; scaled).",
		Run: func(cfg Config) error {
			n := cfg.scaled(100000)
			w := tweetWorkload(n, cfg.Seed)
			t := newTable(cfg.Out, "granularity", "q", "4q", "7q", "10q", "index size")
			for _, g := range []int{64, 128, 256} {
				iw, err := indexWorkload(w, g)
				if err != nil {
					return err
				}
				cells := []any{fmt.Sprintf("%dx%d", g, g)}
				for _, k := range []int{1, 4, 7, 10} {
					_, _, stats, err := runSearch(iw.workload, k, iw.idx, asrs.Options{Delta: 0})
					if err != nil {
						return err
					}
					ratio := 100 * float64(stats.CellsSearched) / float64(stats.Cells)
					cells = append(cells, fmt.Sprintf("%.2f%%", ratio))
				}
				cells = append(cells, fmt.Sprintf("%.1f MB", float64(iw.idx.SizeBytes())/(1<<20)))
				t.row(cells...)
			}
			return nil
		},
	})

	register(Experiment{
		Name:  "fig12",
		Paper: "Figure 12(a,b) — app-GIDS runtime vs δ across cardinalities",
		Desc:  "δ ∈ {0.1,0.2,0.3,0.4}, cardinalities 1–3 × unit, F1 and F2 (paper: ×10⁸; scaled).",
		Run: func(cfg Config) error {
			unit := cfg.scaled(50000)
			families := []struct {
				name string
				mk   func(int, int64) workload
			}{
				{"Composite Aggregator 1 (Tweet)", tweetWorkload},
				{"Composite Aggregator 2 (POISyn)", poiWorkload},
			}
			for _, fam := range families {
				mk := fam.mk
				fmt.Fprintf(cfg.Out, "[%s]\n", fam.name)
				t := newTable(cfg.Out, "objects", "δ=0.1 (ms)", "δ=0.2 (ms)", "δ=0.3 (ms)", "δ=0.4 (ms)")
				for _, mult := range []int{1, 2, 3} {
					w := mk(mult*unit, cfg.Seed)
					iw, err := indexWorkload(w, 128)
					if err != nil {
						return err
					}
					cells := []any{mult * unit}
					for _, delta := range []float64{0.1, 0.2, 0.3, 0.4} {
						ms, _, _, err := runSearch(iw.workload, 10, iw.idx, asrs.Options{Delta: delta})
						if err != nil {
							return err
						}
						cells = append(cells, ms)
					}
					t.row(cells...)
				}
			}
			return nil
		},
	})

	register(Experiment{
		Name:  "table2",
		Paper: "Table 2 — approximation quality d_app/d_opt for F1",
		Desc:  "Quality ratios per δ and cardinality (paper: 1–2 ×10⁸; scaled).",
		Run: func(cfg Config) error {
			unit := cfg.scaled(50000)
			t := newTable(cfg.Out, "objects", "δ=0.1", "δ=0.2", "δ=0.3", "δ=0.4")
			for _, mult := range []int{1, 2} {
				w := tweetWorkload(mult*unit, cfg.Seed)
				iw, err := indexWorkload(w, 128)
				if err != nil {
					return err
				}
				_, dopt, _, err := runSearch(iw.workload, 10, iw.idx, asrs.Options{Delta: 0})
				if err != nil {
					return err
				}
				cells := []any{mult * unit}
				for _, delta := range []float64{0.1, 0.2, 0.3, 0.4} {
					_, dapp, _, err := runSearch(iw.workload, 10, iw.idx, asrs.Options{Delta: delta})
					if err != nil {
						return err
					}
					quality := 1.0
					if dopt > 0 {
						quality = dapp / dopt
					}
					if quality > 1+delta+1e-9 {
						return fmt.Errorf("table2: quality %g violates 1+δ=%g", quality, 1+delta)
					}
					cells = append(cells, fmt.Sprintf("%.5f", quality))
				}
				t.row(cells...)
			}
			return nil
		},
	})
}
