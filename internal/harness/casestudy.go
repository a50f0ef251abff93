package harness

import (
	"fmt"

	"asrs"
	"asrs/internal/agg"
	"asrs/internal/asp"
	"asrs/internal/dataset"
	"asrs/internal/geom"
)

func init() {
	register(Experiment{
		Name:  "casestudy",
		Paper: "Figures 14–15 — Singapore case study",
		Desc:  "Query 'Orchard' over 4,556 POIs with F = ((fD, Category, γ_all)); DS-Search should discover 'Marina Bay', with 'Bugis' as the instructive non-answer.",
		Run:   runCaseStudy,
	})
}

func runCaseStudy(cfg Config) error {
	ds := dataset.SingaporePOI(cfg.Seed)
	f, err := agg.New(ds.Schema, agg.Spec{Kind: agg.Distribution, Attr: "category"})
	if err != nil {
		return err
	}
	districts := dataset.SingaporeDistricts()
	orchard := districts[0]
	a, b := orchard.Rect.Width(), orchard.Rect.Height()

	rep := func(r geom.Rect) []float64 {
		return f.Representation(ds, agg.OpenRect{MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY})
	}
	target := rep(orchard.Rect)
	q := asp.Query{F: f, Target: target}
	if err := q.Validate(); err != nil {
		return err
	}

	// A search plus an exclusion: the example region would otherwise be
	// its own zero-distance answer.
	resp, _ := asrs.Answer(ds, nil, asrs.QueryRequest{Query: q, A: a, B: b,
		Exclude: []geom.Rect{orchard.Rect}})
	if resp.Err != nil {
		return resp.Err
	}
	region, res := resp.Best()

	// Identify which named district (if any) the answer matches.
	found := "(unnamed area)"
	for _, d := range districts[1:] {
		inter := region.Intersect(d.Rect)
		if inter.IsValid() && inter.Area() > 0.5*region.Area() {
			found = d.Name
		}
	}
	fmt.Fprintf(cfg.Out, "query region:   %s %v\n", orchard.Name, orchard.Rect)
	fmt.Fprintf(cfg.Out, "answer region:  %v  → overlaps %q (distance %.2f)\n\n", region, found, res.Dist)

	// Fig 14(b): the category-distribution representations.
	t := newTable(cfg.Out, "category", "Orchard", "answer", "Bugis")
	bugis := districts[2]
	bugisRep := rep(bugis.Rect)
	for i, cat := range dataset.POICategories {
		t.row(cat, target[i], res.Rep[i], bugisRep[i])
	}

	// Fig 15's takeaway as distances.
	dAnswer := q.Distance(res.Rep)
	dBugis := q.Distance(bugisRep)
	fmt.Fprintf(cfg.Out, "\ndist(Orchard, answer) = %.2f   dist(Orchard, Bugis) = %.2f\n", dAnswer, dBugis)
	if dAnswer >= dBugis {
		return fmt.Errorf("casestudy: discovered region (%.2f) is not closer than Bugis (%.2f)", dAnswer, dBugis)
	}
	if found == "(unnamed area)" {
		fmt.Fprintln(cfg.Out, "note: the answer did not align with a named district this run")
	}
	return nil
}
