// Engine: the serving-layer facade. One Engine owns a dataset plus
// lazily built, cached per-composite grid indexes and answers batches of
// similarity queries concurrently — the entry point a server would wrap.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"asrs"
)

func main() {
	// A synthetic city: 20,000 POIs with a category attribute.
	schema := asrs.MustSchema(
		asrs.Attribute{Name: "category", Kind: asrs.Categorical,
			Domain: []string{"cafe", "gym", "school"}},
	)
	rng := rand.New(rand.NewSource(7))
	objects := make([]asrs.Object, 0, 20000)
	for i := 0; i < 20000; i++ {
		objects = append(objects, asrs.Object{
			Loc:    asrs.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000},
			Values: []asrs.Value{{Cat: rng.Intn(3)}},
		})
	}
	ds := &asrs.Dataset{Schema: schema, Objects: objects}

	f, err := asrs.NewComposite(schema, asrs.AggSpec{Kind: asrs.Distribution, Attr: "category"})
	if err != nil {
		log.Fatal(err)
	}

	// The engine builds a 64×64 grid index for f on first use and serves
	// every subsequent query from it, one search per goroutine.
	eng, err := asrs.NewEngine(ds, asrs.EngineOptions{IndexGranularity: 64})
	if err != nil {
		log.Fatal(err)
	}

	// A batch of queries sharing the cached index: different target
	// category mixes, one top-k request.
	var reqs []asrs.QueryRequest
	for _, target := range [][]float64{
		{20, 2, 2}, {2, 20, 2}, {2, 2, 20}, {8, 8, 8},
	} {
		q, err := asrs.QueryFromTarget(f, target, nil)
		if err != nil {
			log.Fatal(err)
		}
		reqs = append(reqs, asrs.QueryRequest{Query: q, A: 40, B: 40})
	}
	topQ, _ := asrs.QueryFromTarget(f, []float64{25, 0, 0}, nil)
	reqs = append(reqs, asrs.QueryRequest{Query: topQ, A: 40, B: 40, TopK: 3})

	start := time.Now()
	resps := eng.QueryBatch(reqs)
	elapsed := time.Since(start)

	for i, resp := range resps {
		if resp.Err != nil {
			log.Fatalf("request %d: %v", i, resp.Err)
		}
		for j := range resp.Regions {
			fmt.Printf("request %d answer %d: %v  dist=%.2f  rep=%.0f\n",
				i, j, resp.Regions[j], resp.Results[j].Dist, resp.Results[j].Rep)
		}
	}
	fmt.Printf("batch of %d answered in %v (index built lazily on first use)\n",
		len(reqs), elapsed.Round(time.Millisecond))

	// Engine.Stats carries serving-side observability: dedup hits
	// (requests that joined an identical search in flight), and the
	// per-executed-search latency distribution (p50/p95/p99) the asrsd
	// /stats endpoint exposes.
	st := eng.Stats()
	fmt.Printf("engine stats: %d searches, dedup hits %d, latency p50=%.2fms p95=%.2fms p99=%.2fms\n",
		st.LatencyCount, st.DedupHits, st.LatencyP50Ms, st.LatencyP95Ms, st.LatencyP99Ms)
}
