// Quickstart: the smallest end-to-end ASRS query, using only the public
// API. We build a toy city of POIs, describe the aspects we care about
// with a composite aggregator, and ask for the region most similar to a
// hand-crafted target.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"

	"asrs"
)

func main() {
	debug := flag.Bool("debug", false, "print search work counters, including the mini-sweep strip-evaluator selection")
	flag.Parse()
	// A schema with one categorical and one numeric attribute.
	schema := asrs.MustSchema(
		asrs.Attribute{Name: "category", Kind: asrs.Categorical,
			Domain: []string{"cafe", "gym", "school"}},
		asrs.Attribute{Name: "rating", Kind: asrs.Numeric},
	)

	// A synthetic city: 2,000 POIs in a 100×100 area, with a cafe-dense
	// quarter around (20, 20).
	rng := rand.New(rand.NewSource(1))
	objects := make([]asrs.Object, 0, 2000)
	for i := 0; i < 2000; i++ {
		x, y := rng.Float64()*100, rng.Float64()*100
		cat := rng.Intn(3)
		if x < 30 && y < 30 && rng.Float64() < 0.7 {
			cat = 0 // cafes cluster in the south-west quarter
		}
		objects = append(objects, asrs.Object{
			Loc:    asrs.Point{X: x, Y: y},
			Values: []asrs.Value{{Cat: cat}, {Num: 2 + 8*rng.Float64()}},
		})
	}
	ds := &asrs.Dataset{Schema: schema, Objects: objects}
	if err := ds.Validate(); err != nil {
		log.Fatal(err)
	}

	// Aspects of interest: the category mix, and the average rating.
	f, err := asrs.NewComposite(schema,
		asrs.AggSpec{Kind: asrs.Distribution, Attr: "category"},
		asrs.AggSpec{Kind: asrs.Average, Attr: "rating"},
	)
	if err != nil {
		log.Fatal(err)
	}

	// Target: a 10×10 region with ~15 cafes, few gyms/schools, and a high
	// average rating. Weights de-emphasize the rating dimension.
	q, err := asrs.QueryFromTarget(f,
		[]float64{15, 2, 2, 9.0},
		[]float64{1, 1, 1, 0.5},
	)
	if err != nil {
		log.Fatal(err)
	}

	region, res, stats, err := asrs.Search(ds, 10, 10, q, asrs.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("most similar region: %v\n", region)
	fmt.Printf("representation:      cafes=%.0f gyms=%.0f schools=%.0f avg-rating=%.2f\n",
		res.Rep[0], res.Rep[1], res.Rep[2], res.Rep[3])
	fmt.Printf("distance to target:  %.3f\n", res.Dist)
	fmt.Printf("search effort:       %d discretizations, %d cells pruned\n",
		stats.Discretizations, stats.PrunedCells)
	if *debug {
		// The terminal rule's mini-sweeps pick a strip evaluator per dirty
		// strip — a flat prefix scan for dense strips, Fenwick tree walks
		// for sparse ones. The choice is a measured-cost decision and
		// never changes the answer (DESIGN.md §8).
		fmt.Printf("mini-sweeps:         %d over %d rects; strips: %d flat, %d fenwick\n",
			stats.MiniSweeps, stats.MiniSweepRects, stats.FlatStrips, stats.FenwickStrips)
	}
}
