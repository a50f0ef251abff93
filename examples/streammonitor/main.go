// Stream monitor: continuous similar-region search over an arriving
// geo-stream — the paper's motivating setting (§1: "increasingly massive
// volumes of geo-tagged data are becoming available"). Tweets arrive in
// batches through Engine.InsertBatch; each batch advances the engine's
// epoch view, and the weekend-hotspot query (Composite Aggregator 1) is
// re-run against the delta-folded pyramid — the batch is spliced into a
// copy of the previous epoch's pyramid instead of a restart. After every tick the answer is checked bit-for-bit against
// a from-scratch engine over the same prefix: the standing invariant
// that the fold-in path is exact, not approximate.
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"asrs"
	"asrs/internal/dataset"
)

func main() {
	const (
		total     = 120000
		batchSize = 30000
	)
	// Seed 43 draws a stream with no exactly co-located tweets. (A corpus
	// with location ties would fold just the same: every certified
	// channel sums exactly in any order, so tied objects may sit either
	// way round.)
	full := dataset.Tweet(total, 43)
	bounds := dataset.USBounds()
	a, b := 10*bounds.Width()/1000, 10*bounds.Height()/1000

	// The composite aggregator is fixed up front; the target is re-tuned
	// per tick since "maximum weekend tweets a region can hold" grows
	// with the stream.
	probe, err := dataset.F1(full, a, b)
	if err != nil {
		log.Fatal(err)
	}
	f := probe.F

	// Seed the engine with the first batch; the rest arrives as inserts.
	seed := &asrs.Dataset{Schema: full.Schema, Objects: full.Objects[:batchSize]}
	eng, err := asrs.NewEngine(seed, asrs.EngineOptions{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("monitoring weekend hotspots over a %d-tweet stream (batches of %d)\n\n", total, batchSize)
	for seen := batchSize; seen <= total; seen += batchSize {
		var ingestTime time.Duration
		if seen > batchSize {
			ingest := time.Now()
			if err := eng.InsertBatch(full.Objects[seen-batchSize : seen]); err != nil {
				log.Fatal(err)
			}
			ingestTime = time.Since(ingest)
		}
		prefix := &asrs.Dataset{Schema: full.Schema, Objects: full.Objects[:seen]}

		q, err := dataset.F1(prefix, a, b)
		if err != nil {
			log.Fatal(err)
		}
		q.F = f // share the engine's composite (same structure, re-tuned target)
		req := asrs.QueryRequest{Query: q, A: a, B: b}
		solve := time.Now()
		resp := eng.Query(req)
		if resp.Err != nil {
			log.Fatal(resp.Err)
		}
		solveTime := time.Since(solve)
		res := resp.Results[0]

		// Rebuild-match assertion: a fresh engine over the same prefix
		// must produce the identical answer — delta fold-in is exact.
		rebuilt, err := asrs.NewEngine(prefix, asrs.EngineOptions{})
		if err != nil {
			log.Fatal(err)
		}
		ref := rebuilt.Query(req)
		if ref.Err != nil {
			log.Fatal(ref.Err)
		}
		if math.Float64bits(res.Dist) != math.Float64bits(ref.Results[0].Dist) ||
			resp.Regions[0] != ref.Regions[0] {
			log.Fatalf("after %d tweets: streamed answer %v @ %v diverges from rebuild %v @ %v",
				seen, res.Dist, resp.Regions[0], ref.Results[0].Dist, ref.Regions[0])
		}

		weekend := res.Rep[5] + res.Rep[6]
		weekday := res.Rep[0] + res.Rep[1] + res.Rep[2] + res.Rep[3] + res.Rep[4]
		fmt.Printf("after %6d tweets: hotspot %v\n", seen, resp.Regions[0])
		fmt.Printf("    weekend=%4.0f weekday=%4.0f  (ingest %v, solve %v, matches rebuild)\n",
			weekend, weekday, ingestTime.Round(time.Millisecond), solveTime.Round(time.Millisecond))
	}
	if st := eng.Stats(); st.PyramidFolds == 0 {
		log.Fatal("expected at least one delta pyramid fold")
	} else {
		fmt.Printf("\n%d inserts ingested, %d delta folds, every tick bit-identical to a rebuild\n",
			st.Ingested, st.PyramidFolds)
	}
}
