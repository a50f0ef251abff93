package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"asrs"
	"asrs/internal/dataset"
	"asrs/internal/server"
	"asrs/internal/wire"
)

// BenchmarkServeHotSet is the serving instrument for the case the
// benchmark zoo cannot see — more clients than cores: closed-loop clients
// over real sockets draw from a pool of 32 queries in 4 shapes (Singapore
// 20k), three quarters of the traffic on 8 hot ones. One iteration is 8
// requests per client. It reports ops/s and, per operation, how many
// requests copied an identical search's answer (dedup/op) and how many
// searches ran (searches/op); it fails on an answer that differs from the
// solo engine query.
func BenchmarkServeHotSet(b *testing.B) {
	const pool, hot, perIter = 32, 8, 8
	ds := dataset.SingaporeScaled(20000, 11)
	f, err := asrs.NewComposite(ds.Schema,
		asrs.AggSpec{Kind: asrs.Distribution, Attr: "category"},
		asrs.AggSpec{Kind: asrs.Count},
	)
	if err != nil {
		b.Fatal(err)
	}
	distinct, err := serveQueries(ds, f, pool, 23)
	if err != nil {
		b.Fatal(err)
	}
	for i := range distinct {
		// Four shapes: the (a, b) of serveQueries scaled by shape.
		scale := 1 + 0.25*float64(i%4)
		distinct[i].A *= scale
		distinct[i].B *= scale
	}
	for _, clients := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			eng, err := asrs.NewEngine(ds, asrs.EngineOptions{IndexGranularity: 64, Search: asrs.Options{Workers: 1}})
			if err != nil {
				b.Fatal(err)
			}
			if err := eng.Warm(f); err != nil {
				b.Fatal(err)
			}
			want := make([]float64, pool)
			bodies := make([][]byte, pool)
			for i, req := range distinct {
				resp := eng.Query(req)
				if resp.Err != nil {
					b.Fatal(resp.Err)
				}
				want[i] = resp.Results[0].Dist
				if bodies[i], err = json.Marshal(wireFor(req)); err != nil {
					b.Fatal(err)
				}
			}
			s, err := server.New(server.Config{
				Engine: eng, Composites: map[string]*asrs.Composite{"poi": f},
				MaxInFlight: 4 * clients,
			})
			if err != nil {
				b.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
			defer client.CloseIdleConnections()

			before := eng.Stats()
			b.ResetTimer()
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(c)))
					for n := 0; n < b.N*perIter; n++ {
						i := rng.Intn(hot)
						if rng.Intn(4) == 0 {
							i = hot + rng.Intn(pool-hot)
						}
						resp, err := client.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(bodies[i]))
						if err != nil {
							b.Error(err)
							return
						}
						var wr wire.Response
						err = json.NewDecoder(resp.Body).Decode(&wr)
						resp.Body.Close()
						if err != nil || resp.StatusCode != http.StatusOK {
							b.Errorf("query %d: status %d, %v %s", i, resp.StatusCode, err, wr.Error)
							return
						}
						if got := wr.Results[0].Dist; math.Float64bits(got) != math.Float64bits(want[i]) {
							b.Errorf("query %d: served %v != solo %v", i, got, want[i])
							return
						}
					}
				}(c)
			}
			wg.Wait()
			b.StopTimer()
			after := eng.Stats()
			ops := float64(b.N * perIter * clients)
			b.ReportMetric(ops/b.Elapsed().Seconds(), "ops/s")
			b.ReportMetric(float64(after.DedupHits-before.DedupHits)/ops, "dedup/op")
			b.ReportMetric(float64(after.LatencyCount-before.LatencyCount)/ops, "searches/op")
		})
	}
}
