package harness

import (
	"fmt"

	"asrs/internal/dataset"
	"asrs/internal/dssearch"
	"asrs/internal/maxrs"
)

// maxrsPoints draws weighted-1 points from the synthetic Tweet corpus
// (the paper samples tweets for the MaxRS study).
func maxrsPoints(n int, seed int64) []maxrs.Point {
	ds := dataset.Tweet(n, seed)
	pts := make([]maxrs.Point, len(ds.Objects))
	for i := range ds.Objects {
		pts[i] = maxrs.Point{Loc: ds.Objects[i].Loc, Weight: 1}
	}
	return pts
}

func runOE(pts []maxrs.Point, a, b float64) (float64, float64, error) {
	var weight float64
	ms, err := timeIt(func() error {
		res, err := maxrs.OE(pts, a, b)
		weight = res.Weight
		return err
	})
	return ms, weight, err
}

func runDSMaxRS(pts []maxrs.Point, a, b float64) (float64, float64, error) {
	var weight float64
	ms, err := timeIt(func() error {
		res, _, err := maxrs.DS(pts, a, b, dssearch.Options{})
		weight = res.Weight
		return err
	})
	return ms, weight, err
}

func init() {
	register(Experiment{
		Name:  "fig13a",
		Paper: "Figure 13(a) — MaxRS runtime vs query rectangle size, OE vs DS-Search",
		Desc:  "Sizes 1q,10q,20q,30q on sampled tweets (paper: 5×10⁶; scaled).",
		Run: func(cfg Config) error {
			n := cfg.scaled(300000)
			pts := maxrsPoints(n, cfg.Seed)
			bounds := dataset.USBounds()
			t := newTable(cfg.Out, "size", "OE (ms)", "DS-Search (ms)", "agree")
			for _, k := range []int{1, 10, 20, 30} {
				a := float64(k) * bounds.Width() / 1000
				b := float64(k) * bounds.Height() / 1000
				oeMS, oeW, err := runOE(pts, a, b)
				if err != nil {
					return err
				}
				dsMS, dsW, err := runDSMaxRS(pts, a, b)
				if err != nil {
					return err
				}
				t.row(fmt.Sprintf("%dq", k), oeMS, dsMS, agreeMark(oeW, dsW))
			}
			return nil
		},
	})

	register(Experiment{
		Name:  "fig13b",
		Paper: "Figure 13(b) — MaxRS scalability, OE vs DS-Search",
		Desc:  "Cardinalities 1–5 × unit at size 10q (paper: 1–10 ×10⁶; scaled).",
		Run: func(cfg Config) error {
			unit := cfg.scaled(150000)
			bounds := dataset.USBounds()
			a := 10 * bounds.Width() / 1000
			b := 10 * bounds.Height() / 1000
			t := newTable(cfg.Out, "points", "OE (ms)", "DS-Search (ms)", "agree")
			for _, mult := range []int{1, 2, 3, 4, 5} {
				pts := maxrsPoints(mult*unit, cfg.Seed)
				oeMS, oeW, err := runOE(pts, a, b)
				if err != nil {
					return err
				}
				dsMS, dsW, err := runDSMaxRS(pts, a, b)
				if err != nil {
					return err
				}
				t.row(mult*unit, oeMS, dsMS, agreeMark(oeW, dsW))
			}
			return nil
		},
	})
}
