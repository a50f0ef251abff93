// City explorer: the paper's §7.6 case study as an application. A tourist
// who enjoyed the "Orchard" district asks for the most similar other
// region in the city; DS-Search discovers "Marina Bay", and the category
// profile explains why "Bugis" — superficially similar in food and
// transport — is not the answer.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"asrs"
	"asrs/internal/dataset"
	"asrs/internal/viz"
)

func main() {
	svgPath := flag.String("svg", "", "also write a Fig 14(a)-style map to this SVG file")
	flag.Parse()
	ds := dataset.SingaporePOI(42)
	f, err := asrs.NewComposite(ds.Schema,
		asrs.AggSpec{Kind: asrs.Distribution, Attr: "category"})
	if err != nil {
		log.Fatal(err)
	}

	districts := dataset.SingaporeDistricts()
	orchard := districts[0]
	bugis := districts[2]

	// Query by example: the region the tourist liked.
	q, err := asrs.QueryFromRegion(ds, f, nil, orchard.Rect)
	if err != nil {
		log.Fatal(err)
	}

	// Search for the most similar region of the same size, excluding the
	// example itself (it would trivially match with distance 0).
	resp, _ := asrs.Answer(ds, nil, asrs.QueryRequest{
		Query: q, A: orchard.Rect.Width(), B: orchard.Rect.Height(),
		Exclude: []asrs.Rect{orchard.Rect},
	})
	if resp.Err != nil {
		log.Fatal(resp.Err)
	}
	region, res := resp.Best()

	fmt.Printf("you liked:            %s %v\n", orchard.Name, orchard.Rect)
	fmt.Printf("you might also like:  %v (distance %.0f)\n", region, res.Dist)
	for _, d := range districts[1:] {
		if region.Intersects(d.Rect) {
			fmt.Printf("                      → that's %q\n", d.Name)
		}
	}

	// Why: the category profiles (the stacked bars of Fig 14(b)).
	bugisRep := asrs.Represent(ds, f, bugis.Rect)
	fmt.Printf("\n%-24s %8s %8s %8s\n", "category", "Orchard", "answer", "Bugis")
	for i, cat := range dataset.POICategories {
		fmt.Printf("%-24s %8.0f %8.0f %8.0f\n", cat, q.Target[i], res.Rep[i], bugisRep[i])
	}
	fmt.Printf("\ndist(Orchard→answer) = %.0f, dist(Orchard→Bugis) = %.0f\n",
		res.Dist, asrs.Distance(asrs.L1, q.Target, bugisRep, nil))

	if *svgPath != "" {
		out, err := os.Create(*svgPath)
		if err != nil {
			log.Fatal(err)
		}
		defer out.Close()
		err = viz.Render(out, viz.Map{
			Dataset: ds,
			ColorBy: "category",
			WidthPx: 1200,
			Boxes: []viz.Box{
				{Rect: orchard.Rect, Label: "Orchard (query)", Color: "#d62728"},
				{Rect: region, Label: "answer", Color: "#111111"},
				{Rect: bugis.Rect, Label: "Bugis", Color: "#1f77b4"},
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nmap written to %s\n", *svgPath)
	}
}
