package harness

import (
	"fmt"

	"asrs"
	"asrs/internal/asp"
	"asrs/internal/attr"
	"asrs/internal/dataset"
	"asrs/internal/sweep"
)

// workload bundles a dataset with its paper query constructor.
type workload struct {
	name  string
	ds    *attr.Dataset
	query func(a, b float64) (asp.Query, error)
}

func tweetWorkload(n int, seed int64) workload {
	ds := dataset.Tweet(n, seed)
	return workload{name: fmt.Sprintf("Tweet-%d", n), ds: ds,
		query: func(a, b float64) (asp.Query, error) { return dataset.F1(ds, a, b) }}
}

func poiWorkload(n int, seed int64) workload {
	ds := dataset.POISyn(n, seed)
	return workload{name: fmt.Sprintf("POISyn-%d", n), ds: ds,
		query: func(a, b float64) (asp.Query, error) { return dataset.F2(ds, a, b) }}
}

// querySize returns the paper's k·q extent for a dataset.
func querySize(ds *attr.Dataset, k int) (float64, float64) {
	bounds := ds.Bounds()
	return float64(k) * bounds.Width() / 1000, float64(k) * bounds.Height() / 1000
}

func runBase(w workload, k int) (float64, float64, error) {
	a, b := querySize(w.ds, k)
	q, err := w.query(a, b)
	if err != nil {
		return 0, 0, err
	}
	var dist float64
	ms, err := timeIt(func() error {
		rects, err := asp.Reduce(w.ds, a, b, asp.AnchorTR)
		if err != nil {
			return err
		}
		s, err := sweep.New(rects, q)
		if err != nil {
			return err
		}
		dist = s.Solve().Dist
		return nil
	})
	return ms, dist, err
}

// runSearch times one plain request through the library's one driver
// (asrs.Answer): DS-Search without an index, GI-DS with one.
func runSearch(w workload, k int, idx *asrs.Index, opt asrs.Options) (float64, float64, asrs.IndexStats, error) {
	a, b := querySize(w.ds, k)
	q, err := w.query(a, b)
	if err != nil {
		return 0, 0, asrs.IndexStats{}, err
	}
	var resp asrs.QueryResponse
	var stats asrs.IndexStats
	ms, err := timeIt(func() error {
		resp, stats = asrs.Answer(w.ds, idx, asrs.QueryRequest{Query: q, A: a, B: b, Options: &opt})
		return resp.Err
	})
	_, res := resp.Best()
	return ms, res.Dist, stats, err
}

func init() {
	register(Experiment{
		Name:  "fig8",
		Paper: "Figure 8(a,b) — runtime vs query rectangle size, DS-Search vs Base",
		Desc:  "Sizes q, 4q, 7q, 10q on Tweet and POISyn (paper: 1M objects; scaled).",
		Run: func(cfg Config) error {
			n := cfg.scaled(4000)
			for _, w := range []workload{tweetWorkload(n, cfg.Seed), poiWorkload(n, cfg.Seed)} {
				fmt.Fprintf(cfg.Out, "[%s]\n", w.name)
				t := newTable(cfg.Out, "size", "Base (ms)", "DS-Search (ms)", "speedup", "agree")
				for _, k := range []int{1, 4, 7, 10} {
					baseMS, baseDist, err := runBase(w, k)
					if err != nil {
						return err
					}
					dsMS, dsDist, _, err := runSearch(w, k, nil, asrs.Options{NCol: 30, NRow: 30})
					if err != nil {
						return err
					}
					t.row(fmt.Sprintf("%dq", k), baseMS, dsMS, baseMS/dsMS, agreeMark(baseDist, dsDist))
				}
			}
			return nil
		},
	})

	register(Experiment{
		Name:  "fig9",
		Paper: "Figure 9(a,b) — DS-Search runtime vs grid granularity n_col = n_row",
		Desc:  "Granularities 10–50 for sizes q..10q (paper: 1M objects; scaled).",
		Run: func(cfg Config) error {
			n := cfg.scaled(100000)
			for _, w := range []workload{tweetWorkload(n, cfg.Seed), poiWorkload(n, cfg.Seed)} {
				fmt.Fprintf(cfg.Out, "[%s]\n", w.name)
				t := newTable(cfg.Out, "n_col=n_row", "q (ms)", "4q (ms)", "7q (ms)", "10q (ms)")
				for _, g := range []int{10, 20, 30, 40, 50} {
					cells := make([]any, 0, 5)
					cells = append(cells, g)
					for _, k := range []int{1, 4, 7, 10} {
						ms, _, _, err := runSearch(w, k, nil, asrs.Options{NCol: g, NRow: g})
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
		Name:  "fig10",
		Paper: "Figure 10(a,b) — runtime vs dataset cardinality, DS-Search vs Base",
		Desc:  "Cardinalities 1,4,7,10 × unit at size 10q (paper: ×10⁵; scaled unit).",
		Run: func(cfg Config) error {
			unit := cfg.scaled(1000)
			for _, mk := range []func(int, int64) workload{tweetWorkload, poiWorkload} {
				first := mk(unit, cfg.Seed)
				fmt.Fprintf(cfg.Out, "[%s family]\n", first.name)
				t := newTable(cfg.Out, "objects", "Base (ms)", "DS-Search (ms)", "speedup", "agree")
				for _, mult := range []int{1, 4, 7, 10} {
					w := mk(mult*unit, cfg.Seed)
					baseMS, baseDist, err := runBase(w, 10)
					if err != nil {
						return err
					}
					dsMS, dsDist, _, err := runSearch(w, 10, nil, asrs.Options{NCol: 30, NRow: 30})
					if err != nil {
						return err
					}
					t.row(mult*unit, baseMS, dsMS, baseMS/dsMS, agreeMark(baseDist, dsDist))
				}
			}
			return nil
		},
	})
}

// agreeMark verifies the two algorithms found equally good answers (the
// reproduction's built-in correctness check).
func agreeMark(a, b float64) string {
	d := a - b
	if d < 0 {
		d = -d
	}
	if d <= 1e-6*(1+absF(a)) {
		return "yes"
	}
	return fmt.Sprintf("NO (%g vs %g)", a, b)
}

func absF(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
