package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"testing"

	"asrs"
	"asrs/internal/shard"
	"asrs/internal/wire"
)

// update rewrites what the tests pin instead of checking it:
// go test -run 'Stable|JSON' -update
var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the code and print the golden op-list hashes")

// envs caches the serving corpora the generator tests share.
var envs = map[string]*servingEnv{}

func envOf(t *testing.T, w *workload) *servingEnv {
	t.Helper()
	key := fmt.Sprintf("%s/%d", w.dataset, w.n)
	if e, ok := envs[key]; ok {
		return e
	}
	e, err := newServingEnv(w.dataset, w.n)
	if err != nil {
		t.Fatal(err)
	}
	envs[key] = e
	return e
}

func scheduleHash(t *testing.T, w *workload, seed int64) string {
	t.Helper()
	s, err := w.generate(envOf(t, w), seed)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(s.fingerprint()))[:16]
}

// TestGeneratorsAreByteStable pins every workload's op list for seed 42
// and checks that another seed gives another list. A changed hash means
// every number measured before the change is incomparable: re-baseline.
func TestGeneratorsAreByteStable(t *testing.T) {
	golden := map[string]string{
		"f1-distinct":  "5e0d198e4b1c0a0f",
		"f2-stream":    "ed02309d4352a222",
		"hot-coalesce": "16a9f68e781361cc",
		"shard-ingest": "dd268a79d656e75f",
	}
	for i := range workloads {
		w := &workloads[i]
		got := scheduleHash(t, w, 42)
		if got != scheduleHash(t, w, 42) {
			t.Errorf("%s: two generations of seed 42 differ", w.name)
		}
		if *update {
			t.Logf("%q: %q,", w.name, got)
		} else if got != golden[w.name] {
			t.Errorf("%s: op list of seed 42 hashes to %s, golden %s", w.name, got, golden[w.name])
		}
		if got == scheduleHash(t, w, 43) {
			t.Errorf("%s: seeds 42 and 43 give the same op list", w.name)
		}
	}
}

// TestSeedKeepsTheWorkPerBlock checks what generate promises: the seed
// reorders a block but never changes the multiset of operations in it.
func TestSeedKeepsTheWorkPerBlock(t *testing.T) {
	multiset := func(s *schedule) map[string]int {
		out := map[string]int{}
		for _, round := range s.block {
			var ids []string
			for _, st := range round {
				if st.isInsert() {
					ids = append(ids, "insert")
				} else {
					ids = append(ids, fmt.Sprintf("%x", sha256.Sum256(s.ops[st].body))[:12])
				}
			}
			// A pair is the same work whichever client sends which half.
			if len(ids) == 2 && ids[0] > ids[1] {
				ids[0], ids[1] = ids[1], ids[0]
			}
			out[strings.Join(ids, "+")]++
		}
		return out
	}
	for i := range workloads {
		w := &workloads[i]
		a, err := w.generate(envOf(t, w), 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.generate(envOf(t, w), 2)
		if err != nil {
			t.Fatal(err)
		}
		ma, mb := multiset(a), multiset(b)
		if len(ma) != len(mb) {
			t.Errorf("%s: blocks of seeds 1 and 2 hold %d and %d distinct rounds", w.name, len(ma), len(mb))
		}
		for k, n := range ma {
			if mb[k] != n {
				t.Errorf("%s: round %s occurs %d times under seed 1, %d under seed 2", w.name, k, n, mb[k])
			}
		}
	}
}

func TestHotCoalescePairMix(t *testing.T) {
	w := workloadByName("hot-coalesce")
	for seed := int64(1); seed <= 3; seed++ {
		s, err := w.generate(envOf(t, w), seed)
		if err != nil {
			t.Fatal(err)
		}
		var count [3]int
		for _, round := range s.block {
			if len(round) != 2 {
				t.Fatalf("round has %d steps, want a pair", len(round))
			}
			count[pairKind(round)]++
		}
		n := len(s.block)
		if count[pairIdentical]*4 != n || count[pairSameShape]*2 != n || count[pairUnrelated]*4 != n {
			t.Errorf("seed %d: pair mix %v over %d rounds, want 25/50/25", seed, count, n)
		}
		for _, round := range s.block {
			a, b := s.ops[round[0]].req, s.ops[round[1]].req
			sameShape := a.A == b.A && a.B == b.B
			if kind := pairKind(round); (kind == pairUnrelated) == sameShape {
				t.Errorf("seed %d: pair kind %d but same shape = %v", seed, kind, sameShape)
			}
		}
	}
}

// TestShardIngestExtentClasses checks the generated extents against the
// cuts a real catalog computes, by the router's own rule: an extent is
// contained iff one shard's closed slab holds it.
func TestShardIngestExtentClasses(t *testing.T) {
	w := workloadByName("shard-ingest")
	env := envOf(t, w)
	s, err := w.generate(env, 42)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := shard.New(env.ds, shard.Config{Shards: ingestShards, Composites: env.composites, Names: env.names, Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for i, o := range s.ops {
		e := *o.req.Within
		contained := false
		for _, sh := range cat.Shards() {
			lo, hi := sh.Slab()
			if lo <= e.MinX && e.MaxX <= hi {
				contained = true
			}
		}
		if want := map[bool]string{true: "contained", false: "straddle"}[contained]; o.class != want {
			t.Errorf("op %d: extent %v generated as %s, the catalog's slabs say %s", i, e, o.class, want)
		}
		count[o.class]++
	}
	if count["contained"] != ingestContained || count["straddle"] != ingestStraddling {
		t.Errorf("extent classes %v, want %d contained and %d straddling", count, ingestContained, ingestStraddling)
	}
	// The cycle: 1 insert, 2 contained, 5 straddling, four times.
	for c := 0; c < ingestCycles; c++ {
		cycle := s.block[8*c : 8*c+8]
		if !cycle[0][0].isInsert() {
			t.Errorf("cycle %d does not start with an insert", c)
		}
		for j, round := range cycle[1:] {
			want := "straddle"
			if j < 2 {
				want = "contained"
			}
			if got := s.ops[round[0]].class; got != want {
				t.Errorf("cycle %d position %d is %s, want %s", c, j+1, got, want)
			}
		}
	}
}

func TestStatsArithmetic(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	// Drops 2 of 10 from each end: mean of 3..8.
	if got := iqm(xs); got != 5.5 {
		t.Errorf("iqm = %v, want 5.5", got)
	}
	if got := iqm([]float64{1, 1, 1, 1, 1, 1, 1, 1, 100}); got != 1 {
		t.Errorf("iqm with one outlier in nine = %v, want 1", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got := iqrShare(xs); got != 1 {
		t.Errorf("iqrShare = %v, want 1", got)
	}
	// 40 samples 1..40: the 85th..95th percentile band is ranks 35..38.
	var ys []float64
	for i := 40; i >= 1; i-- {
		ys = append(ys, float64(i))
	}
	if got := bandMean(ys, 90); got != 36.5 {
		t.Errorf("bandMean p90 = %v, want 36.5", got)
	}
	if got := bandMean(ys, 50); got != 20.5 {
		t.Errorf("bandMean p50 = %v, want 20.5", got)
	}
}

func TestNormalisationArithmetic(t *testing.T) {
	// A host running the reference kernel in twice its nominal time is
	// half as fast: wall times are halved.
	if got := speedFactor(2*RefNominalMs, 2*RefNominalMs); got != 0.5 {
		t.Errorf("factor on a half-speed host = %v, want 0.5", got)
	}
	if got := speedFactor(RefNominalMs/2, RefNominalMs, 2*RefNominalMs); got != 1 {
		t.Errorf("factor takes the median sample: got %v, want 1", got)
	}
	k := newRefKernel()
	a, b := k.run(), k.run()
	if a <= 0 || b <= 0 {
		t.Fatalf("reference kernel reports %v, %v ms", a, b)
	}
	wall, factor := k.bracket(2, func() {})
	if wall < 0 || factor <= 0 {
		t.Errorf("bracket = %v ms, factor %v", wall, factor)
	}
	// typical: per-operation medians, failures excluded.
	ph := &phase{ops: [][][]obs{{{
		{wallMs: 10, factor: 1, ok: true}, {wallMs: 30, factor: 0.5, ok: true}, {wallMs: 99, factor: 1, ok: false},
	}}}}
	if got := ph.typical(func(o obs) float64 { return o.wallMs * o.factor }); len(got) != 1 || got[0] != 12.5 {
		t.Errorf("typical = %v, want [12.5]", got)
	}
}

// TestBenchmarkJSONMatchesTheCode keeps BENCHMARK.json and the metric
// and workload tables in step, and checks that the result line carries
// every named metric with its unit.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", benchmarkJSON(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []metricSpec `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the code's default is %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	same := func(kind string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the code", len(got), kind, len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || g.Bound != w.Bound {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, code %+v", kind, i, g, w)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)

	for _, specs := range [][]metricSpec{endToEnd, perLayer} {
		res := &result{ok: true, attempted: 3, metrics: map[string]float64{}}
		for i, s := range specs {
			res.metrics[s.Name] = float64(i) + 0.5
		}
		var out bytes.Buffer
		if err := writeContractLine(&out, res, specs); err != nil {
			t.Fatal(err)
		}
		var line struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal(out.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		if !line.Correct || line.Attempted != 3 || len(line.Metrics) != len(specs) {
			t.Errorf("result line %s", out.String())
		}
		for i, s := range specs {
			if m := line.Metrics[s.Name]; m.Unit != s.Unit || m.Value != float64(i)+0.5 {
				t.Errorf("metric %s in the result line: %+v", s.Name, m)
			}
		}
	}
}

// TestTamperedResponsesAreCaught runs the verifier over a small corpus:
// the engine's own answer passes, and every way of damaging it fails.
func TestTamperedResponsesAreCaught(t *testing.T) {
	env, err := newServingEnv("tweet", 3000)
	if err != nil {
		t.Fatal(err)
	}
	a, b := env.bounds.Width()/30, env.bounds.Height()/30
	pool := rand.New(rand.NewSource(1))
	o, err := queryOp(env, "day", "query", a, b, virtualTarget(env, env.composites["day"], pool, a, b), nil, "l1", nil)
	if err != nil {
		t.Fatal(err)
	}
	sch := &schedule{ops: []op{o}, block: [][]step{{0}}}
	v, err := newVerifier(env, sch, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer v.close()
	exp := v.at(0, 0, 0, 0)

	// The honest answer comes from a differently configured engine: the
	// pyramid on, two workers.
	eng, err := asrs.NewEngine(env.ds, asrs.EngineOptions{IndexGranularity: 64, Search: asrs.Options{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	honest := wire.ResponseWire(eng.QueryCtx(context.Background(), o.req), 0)
	body := func(r wire.Response) []byte { return mustJSON(r) }
	check := func(r opResult) error { return r.verify(v, 0, &sch.ops[0], exp) }
	if err := check(opResult{status: http.StatusOK, body: body(honest)}); err != nil {
		t.Fatalf("honest answer rejected: %v", err)
	}

	tamper := func(name string, f func(r *wire.Response)) {
		r := honest
		r.Results = append([]wire.Result(nil), honest.Results...)
		f(&r)
		if err := check(opResult{status: http.StatusOK, body: body(r)}); err == nil {
			t.Errorf("%s: tampered response passed verification", name)
		}
	}
	tamper("distance one ulp off", func(r *wire.Response) {
		r.Results[0].Dist = math.Nextafter(r.Results[0].Dist, math.Inf(1))
	})
	tamper("region moved", func(r *wire.Response) {
		r.Results[0].Region.MinX += 5 * a
		r.Results[0].Region.MaxX += 5 * a
	})
	tamper("region resized", func(r *wire.Response) { r.Results[0].Region.MaxX += a })
	tamper("no results", func(r *wire.Response) { r.Results = nil })
	tamper("extra result", func(r *wire.Response) { r.Results = append(r.Results, r.Results[0]) })
	tamper("error response", func(r *wire.Response) { r.Error = "boom" })
	if err := check(opResult{status: http.StatusTooManyRequests, body: body(honest)}); err == nil {
		t.Error("a 429 passed verification")
	}
	if err := check(opResult{status: http.StatusOK, body: []byte(`{"results":[`)}); err == nil {
		t.Error("a truncated body passed verification")
	}

	// Streams: rows plus a terminal row pass; a stream cut before its
	// terminal row, or whose terminal row miscounts, does not.
	row := mustJSON(wire.SearchRow{Rank: 1, Result: &honest.Results[0]})
	done := mustJSON(wire.SearchRow{Done: true, Count: 1})
	line := func(b []byte) []byte { return append(append([]byte(nil), b...), '\n') }
	if err := v.verifySearchLines(0, [][]byte{line(row), line(done)}, exp); err != nil {
		t.Errorf("honest stream rejected: %v", err)
	}
	if err := v.verifySearchLines(0, [][]byte{line(row)}, exp); err == nil {
		t.Error("a stream without its terminal row passed verification")
	}
	if err := v.verifySearchLines(0, [][]byte{line(row), line(mustJSON(wire.SearchRow{Done: true, Count: 2}))}, exp); err == nil {
		t.Error("a terminal row that miscounts passed verification")
	}
	if err := verifyInsertBody(mustJSON(wire.InsertResponse{Ingested: 127}), 128); err == nil {
		t.Error("a short insert acknowledgement passed verification")
	}
}

// benchmarkJSON renders BENCHMARK.json from the code's tables.
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: defaultSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, s := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{s.Name, s.Unit, s.Better, s.Bound})
	}
	for _, s := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{s.Name, s.Unit, s.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}

// pairKind classifies a round of the hot-coalesce schedule.
func pairKind(round []step) int {
	switch {
	case round[0] == round[1]:
		return pairIdentical
	case int(round[0])/hotPerShape == int(round[1])/hotPerShape:
		return pairSameShape
	}
	return pairUnrelated
}

// fingerprint renders a schedule as bytes: every distinct body, the
// block, and the first repetition's inserts. Tests hash it to pin the
// generators.
func (s *schedule) fingerprint() []byte {
	var sb strings.Builder
	for _, o := range s.ops {
		sb.WriteString(o.class)
		sb.WriteByte(' ')
		sb.Write(o.body)
		sb.WriteByte('\n')
	}
	for _, round := range s.block {
		for _, st := range round {
			sb.WriteString(strconv.Itoa(int(st)))
			sb.WriteByte(',')
		}
		sb.WriteByte(';')
	}
	if s.newInsert != nil {
		for k := 0; k < ingestCycles; k++ {
			sb.Write(s.newInsert(0, k).body)
		}
	}
	return []byte(sb.String())
}
