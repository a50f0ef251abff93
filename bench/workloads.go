package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"asrs"
	"asrs/internal/dataset"
	"asrs/internal/shard"
	"asrs/internal/wire"
)

// dataSeed is the corpus seed every daemon boots with (asrsd -seed).
// The benchmark's own -seed only drives the generated operations: the
// program under test receives nothing but those.
const dataSeed = 42

// workload is one row of the zoo: a daemon configuration, a client
// count and an operation generator.
type workload struct {
	name string
	why  string
	// dataset and n pick the corpus; composite is the registered
	// composite the operations name.
	dataset   string
	n         int
	composite string
	// workers is asrsd -workers; clients the closed-loop client count.
	// Both are clamped to nproc at run time.
	workers, clients int
	// extra are daemon flags beyond the common set; "$STATE" expands to
	// the boot's state directory.
	extra []string
	// roundsPerSec is how many rounds of this workload's schedule the
	// calibration host completes per measured second at nominal speed.
	// The measured phase runs round(seconds × roundsPerSec / blockLen)
	// whole blocks: a fixed op list, not a fixed duration.
	roundsPerSec float64
	// poolSalt picks the pool of distinct queries (see generate).
	poolSalt int64
	// gen materialises the schedule. pool is seeded by the workload alone
	// and draws the distinct queries; rng is seeded by -seed and draws
	// everything else (see generate).
	gen func(env *servingEnv, pool, rng *rand.Rand) (*schedule, error)
}

// The four workloads. Sizes are chosen so that the median operation
// costs tens of milliseconds on the calibration host (2 cores): long
// enough that HTTP and JSON are a small share, short enough that a run
// holds several hundred operations.
var workloads = []workload{
	{
		name:    "f1-distinct",
		why:     "paper f1 on Tweet, one client, distinct queries: all time in dssearch/kernel/sweep/gridindex; serving layers idle (control)",
		dataset: "tweet", n: 20000, composite: "day",
		workers: 1, clients: 1,
		roundsPerSec: 20,
		gen:          genF1Distinct,
	},
	{
		name:    "f2-stream",
		why:     "paper f2 on POISyn as top-3 query text over streamed NDJSON, two kernel workers: real-valued channels, language, lazy executor",
		dataset: "poisyn", n: 5000, composite: "f2",
		workers: 2, clients: 1,
		roundsPerSec: 19,
		poolSalt:     2, // the first pool on which GI-DS, DS-Search and brute force agree on every first row (README, findings)
		gen:          genF2Stream,
	},
	{
		name:    "hot-coalesce",
		why:     "two lock-stepped clients send Zipf-hot pairs (25% identical, 50% same shape): only here coalescer, dedup and shape sharing work",
		dataset: "singapore", n: 50000, composite: "category",
		workers: 1, clients: 2,
		roundsPerSec: 23,
		gen:          genHotCoalesce,
	},
	{
		name:    "shard-ingest",
		why:     "4 shards with WAL: inserts beside contained and straddling extent queries, then SIGKILL and recovery: router, wal, delta folds",
		dataset: "tweet", n: 60000, composite: "day",
		workers: 1, clients: 1,
		extra:        []string{"-shards", "4", "-wal-dir", "$STATE/wal", "-wal-sync", "batch", "-compact-at", "512"},
		roundsPerSec: 38,
		gen:          genShardIngest,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// servingEnv is the in-process twin of what asrsd serves: the same
// corpus and the same composite registry (cmd/asrsd buildServing).
type servingEnv struct {
	ds         *asrs.Dataset
	composites map[string]*asrs.Composite
	names      []string // names[0] is the primary composite
	bounds     asrs.Rect
}

func newServingEnv(dsName string, n int) (*servingEnv, error) {
	env := &servingEnv{composites: map[string]*asrs.Composite{}}
	add := func(name string, specs ...asrs.AggSpec) error {
		f, err := asrs.NewComposite(env.ds.Schema, specs...)
		if err != nil {
			return err
		}
		env.composites[name] = f
		env.names = append(env.names, name)
		return nil
	}
	var err error
	switch dsName {
	case "singapore":
		env.ds = dataset.SingaporeScaled(n, dataSeed)
		if err = add("category", asrs.AggSpec{Kind: asrs.Distribution, Attr: "category"}); err == nil {
			err = add("poi", asrs.AggSpec{Kind: asrs.Distribution, Attr: "category"}, asrs.AggSpec{Kind: asrs.Count})
		}
	case "tweet":
		env.ds = dataset.Tweet(n, dataSeed)
		err = add("day", asrs.AggSpec{Kind: asrs.Distribution, Attr: "day"})
	case "poisyn":
		env.ds = dataset.POISyn(n, dataSeed)
		err = add("f2", asrs.AggSpec{Kind: asrs.Sum, Attr: "visits"}, asrs.AggSpec{Kind: asrs.Average, Attr: "rating"})
	default:
		err = fmt.Errorf("unknown dataset %q", dsName)
	}
	if err != nil {
		return nil, err
	}
	env.bounds = env.ds.Bounds()
	return env, nil
}

// opKind is the HTTP front door an operation goes through.
type opKind int

const (
	kindQuery  opKind = iota // POST /v1/query, one JSON response
	kindSearch               // POST /v1/search, streamed NDJSON rows
	kindInsert               // POST /v1/insert
)

func (k opKind) path() string {
	switch k {
	case kindSearch:
		return "/v1/search"
	case kindInsert:
		return "/v1/insert"
	}
	return "/v1/query"
}

// op is one distinct operation: its request body, its library form
// (for the in-process reference and the traced layers) and its class
// (the label latency is grouped by in the trace).
type op struct {
	kind  opKind
	class string
	body  []byte
	// req is the engine request a query denotes (kindQuery).
	req asrs.QueryRequest
	// text is the query-language source (kindSearch).
	text string
	// objs are the objects of an insert (kindInsert).
	objs []asrs.Object
}

// step is one position of a client's op list: an index into
// schedule.ops.
type step int

// schedule is a fully materialised, seeded op list. ops holds every
// distinct operation; block is the repeating unit of rounds, each round
// one step per client (clients are lock-stepped: a round starts when
// every client finished the previous one). Inserts, where a block has
// them, are placeholders (insertStep) filled with fresh objects in every
// repetition by newInsert.
type schedule struct {
	ops       []op
	block     [][]step
	newInsert func(rep, k int) op // nil when the block has no inserts
	// cuts are the shard cut x-coordinates the extents were classified
	// against (shard-ingest only).
	cuts []float64
}

// isInsert reports whether s is a placeholder for a fresh insert.
func (s step) isInsert() bool { return s < 0 }

// insertStep encodes the k-th insert of a block as a negative step.
func insertStep(k int) step { return step(-1 - k) }

func (s step) insertIndex() int { return int(-1 - s) }

func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // wire structs of floats and strings always marshal
	}
	return b
}

// virtualTarget derives a target no region matches exactly from the
// representation of a real a×b region around a populated spot: every
// count is inflated by a tenth and pushed off the integers, so each
// request runs a full search instead of finding a zero-distance answer.
func virtualTarget(env *servingEnv, f *asrs.Composite, pool *rand.Rand, a, b float64) []float64 {
	o := env.ds.Objects[pool.Intn(len(env.ds.Objects))]
	r := asrs.Rect{MinX: o.Loc.X - a/2, MinY: o.Loc.Y - b/2, MaxX: o.Loc.X + a/2, MaxY: o.Loc.Y + b/2}
	t := asrs.Represent(env.ds, f, r)
	for i := range t {
		t[i] = math.Trunc(t[i]*1.1) + 0.5
	}
	return t
}

// f1Weights are the paper's F1 weights: weekdays a fifth each, weekend
// days a half each.
var f1Weights = []float64{0.2, 0.2, 0.2, 0.2, 0.2, 0.5, 0.5}

// f1Target is the paper's F1 target for an a×b answer on a Tweet corpus:
// no weekday tweets and (a share of) the most Saturday and Sunday tweets
// a window of that size can hold. The shares make targets differ.
func f1Target(env *servingEnv, a, b, satShare, sunShare float64) []float64 {
	day := env.ds.Schema.Index("day")
	most := func(d int) float64 {
		return dataset.MaxWindowStat(env.ds, a, b, func(o *asrs.Object) float64 {
			if o.Values[day].Cat == d {
				return 1
			}
			return 0
		})
	}
	return []float64{0, 0, 0, 0, 0, math.Trunc(most(5)*satShare) + 0.5, math.Trunc(most(6)*sunShare) + 0.5}
}

// queryOp builds a /v1/query operation and its engine request.
func queryOp(env *servingEnv, composite, class string, a, b float64, target, weights []float64, norm string, extent *asrs.Rect) (op, error) {
	f := env.composites[composite]
	q, err := asrs.QueryFromTarget(f, target, weights)
	if err != nil {
		return op{}, err
	}
	if q.Norm, err = wire.ParseNorm(norm); err != nil {
		return op{}, err
	}
	wq := wire.Query{Composite: composite, A: a, B: b, Target: target, Weights: weights, Norm: norm}
	req := asrs.QueryRequest{Query: q, A: a, B: b}
	if extent != nil {
		w := wire.RectWire(*extent)
		wq.Extent = &w
		e := *extent
		req.Within = &e
	}
	return op{kind: kindQuery, class: class, body: mustJSON(wq), req: req}, nil
}

// shuffledBlock is one pass over n single-client steps in seeded order.
func shuffledBlock(rng *rand.Rand, n int) [][]step {
	block := make([][]step, 0, n)
	for _, i := range rng.Perm(n) {
		block = append(block, []step{step(i)})
	}
	return block
}

// shareLo is the smallest share of the maximal weekend counts an F1
// target asks for. Near-maximal targets have one clear best region, so
// queries of one size cost about the same; small shares match many
// regions and cost 10× more with a heavy tail.
const shareLo = 0.8

// genF1Distinct: 48 distinct F1 queries over three answer sizes, both
// norms and eight targets each, in seeded order; one client, so no two
// are in flight and nothing can be shared.
func genF1Distinct(env *servingEnv, pool, rng *rand.Rand) (*schedule, error) {
	ua, ub := dataset.QueryUnit(env.bounds)
	s := &schedule{}
	for _, k := range []float64{8, 16, 32} {
		a, b := k*ua, k*ub
		for _, norm := range []string{"l1", "l2"} {
			for t := 0; t < 8; t++ {
				target := f1Target(env, a, b, shareLo+(1-shareLo)*pool.Float64(), shareLo+(1-shareLo)*pool.Float64())
				o, err := queryOp(env, "day", "query", a, b, target, f1Weights, norm, nil)
				if err != nil {
					return nil, err
				}
				s.ops = append(s.ops, o)
			}
		}
	}
	s.block = shuffledBlock(rng, len(s.ops))
	return s, nil
}

// genF2Stream: 24 distinct top-3 searches in the query language over the
// paper's F2 channels (sum of visits, average rating), three sizes and
// both norms. Targets aim high (a well-visited, well-rated region) the
// way the paper's (v_max, 10) does, scaled per query.
func genF2Stream(env *servingEnv, pool, rng *rand.Rand) (*schedule, error) {
	ua, ub := dataset.QueryUnit(env.bounds)
	visits := env.ds.Schema.Index("visits")
	s := &schedule{}
	for _, k := range []float64{20, 30, 45} {
		a, b := k*ua, k*ub
		vmax := dataset.MaxWindowStat(env.ds, a, b, func(o *asrs.Object) float64 { return o.Values[visits].Num })
		if vmax <= 0 {
			vmax = 1
		}
		for _, norm := range []string{"l1", "l2"} {
			for t := 0; t < 4; t++ {
				v := vmax * (0.5 + 0.5*pool.Float64())
				r := 6 + 4*pool.Float64()
				// Terms compile in canonical order (avg before sum), so
				// the target literal is (rating, visits).
				text := fmt.Sprintf("find top 3 size %s x %s similar to target(%s,%s) under %s*sum(visits) + 0.1*avg(rating) norm %s",
					fnum(a), fnum(b), fnum(r), fnum(v), fnum(1/vmax), norm)
				s.ops = append(s.ops, op{kind: kindSearch, class: "search", text: text, body: mustJSON(wire.Search{Q: text})})
			}
		}
	}
	s.block = shuffledBlock(rng, len(s.ops))
	return s, nil
}

// Pair kinds of the hot-coalesce schedule.
const (
	pairIdentical = iota // both clients send the same query: engine dedup
	pairSameShape        // same (a,b), different targets: shared prepared shape
	pairUnrelated        // different (a,b): nothing to share but the window
)

// hotPairPattern is the 25/50/25 mix over 16 rounds; a block repeats it
// so the mix is exact, not merely expected.
var hotPairPattern = [16]int{
	pairIdentical, pairIdentical, pairIdentical, pairIdentical,
	pairSameShape, pairSameShape, pairSameShape, pairSameShape,
	pairSameShape, pairSameShape, pairSameShape, pairSameShape,
	pairUnrelated, pairUnrelated, pairUnrelated, pairUnrelated,
}

const (
	hotShapes        = 4
	hotPerShape      = 8 // queries per shape: 2 hot + 6 cold
	hotPerShapeHot   = 2
	hotBlockPatterns = 2 // 2 × 16 = 32 rounds per block
)

// zipfPick draws a query of the given shape: the shape's hot queries
// take three quarters of the traffic.
func zipfPick(pool *rand.Rand, shape int) int {
	base := shape * hotPerShape
	if pool.Float64() < 0.75 {
		return base + pool.Intn(hotPerShapeHot)
	}
	return base + hotPerShapeHot + pool.Intn(hotPerShape-hotPerShapeHot)
}

// genHotCoalesce: 32 queries (4 shapes × 8 targets; 8 hot, 24 cold) and
// a paired schedule for two lock-stepped clients whose two requests of
// a round land in one 2 ms coalescing window. Which pairs a block holds
// is part of the workload; the seed orders them and decides which
// client sends which half.
func genHotCoalesce(env *servingEnv, pool, rng *rand.Rand) (*schedule, error) {
	s := &schedule{}
	f := env.composites["category"]
	for shape := 0; shape < hotShapes; shape++ {
		div := []float64{24, 28, 32, 40}[shape]
		a, b := env.bounds.Width()/div, env.bounds.Height()/div
		for t := 0; t < hotPerShape; t++ {
			o, err := queryOp(env, "category", "query", a, b, virtualTarget(env, f, pool, a, b), nil, "l1", nil)
			if err != nil {
				return nil, err
			}
			s.ops = append(s.ops, o)
		}
	}
	var pairs [][]step
	for p := 0; p < hotBlockPatterns; p++ {
		for _, kind := range hotPairPattern {
			shape := pool.Intn(hotShapes)
			first := zipfPick(pool, shape)
			second := first
			switch kind {
			case pairSameShape:
				for second == first {
					second = zipfPick(pool, shape)
				}
			case pairUnrelated:
				other := (shape + 1 + pool.Intn(hotShapes-1)) % hotShapes
				second = zipfPick(pool, other)
			}
			pairs = append(pairs, []step{step(first), step(second)})
		}
	}
	for _, i := range rng.Perm(len(pairs)) {
		pair := pairs[i]
		if rng.Intn(2) == 1 {
			pair = []step{pair[1], pair[0]}
		}
		s.block = append(s.block, pair)
	}
	return s, nil
}

const (
	ingestShards     = 4
	ingestBatch      = 128 // objects per insert
	ingestContained  = 8   // distinct contained-extent queries
	ingestStraddling = 20  // distinct straddling-extent queries
	ingestCycles     = 4   // cycles per block: 4 inserts + 8 contained + 20 straddling
)

// extentClass classifies an extent against shard cuts the way the
// router does: contained when it fits one closed slab, else straddling.
func extentClass(cuts []float64, e asrs.Rect) string {
	for _, c := range cuts {
		if e.MinX < c && c < e.MaxX {
			return "straddle"
		}
	}
	return "contained"
}

// genShardIngest: a deterministic 8-op cycle of 1 insert, 2
// contained-extent queries and 5 straddling-extent queries, so p50 and
// p90 both fall among the straddling queries and never between classes.
func genShardIngest(env *servingEnv, pool, rng *rand.Rand) (*schedule, error) {
	cat, err := shard.New(env.ds, shard.Config{Shards: ingestShards, Composites: env.composites, Names: env.names, Lazy: true})
	if err != nil {
		return nil, err
	}
	cuts := cat.Cuts()
	if len(cuts) != ingestShards-1 {
		return nil, fmt.Errorf("shard-ingest: corpus yields %d cuts, want %d", len(cuts), ingestShards-1)
	}
	s := &schedule{cuts: cuts}
	name := env.names[0]
	bw, bh := env.bounds.Width(), env.bounds.Height()
	a, b := bw/40, bh/40
	edges := append(append([]float64{env.bounds.MinX}, cuts...), env.bounds.MaxX)
	ySpan := func() (float64, float64) {
		h := bh * (0.5 + 0.4*pool.Float64())
		y0 := env.bounds.MinY + (bh-h)*pool.Float64()
		return y0, y0 + h
	}
	add := func(class string, e asrs.Rect) error {
		if got := extentClass(cuts, e); got != class {
			return fmt.Errorf("shard-ingest: extent %v classified %s, generated as %s", e, got, class)
		}
		if e.Width() < 2*a {
			return fmt.Errorf("shard-ingest: extent %v is too narrow for a %g-wide answer", e, a)
		}
		target := f1Target(env, a, b, 0.3+0.7*pool.Float64(), 0.3+0.7*pool.Float64())
		o, err := queryOp(env, name, class, a, b, target, f1Weights, "l1", &e)
		if err != nil {
			return err
		}
		s.ops = append(s.ops, o)
		return nil
	}
	for i := 0; i < ingestContained; i++ {
		// A slab contributes a random two-thirds of its width.
		lo, hi := edges[i%ingestShards], edges[i%ingestShards+1]
		span := (hi - lo) * 0.66
		x0 := lo + (hi-lo-span)*pool.Float64()
		y0, y1 := ySpan()
		if err := add("contained", asrs.Rect{MinX: x0, MinY: y0, MaxX: x0 + span, MaxY: y1}); err != nil {
			return nil, err
		}
	}
	for i := 0; i < ingestStraddling; i++ {
		c := cuts[i%len(cuts)]
		half := bw * (0.10 + 0.10*pool.Float64())
		y0, y1 := ySpan()
		e := asrs.Rect{MinX: math.Max(c-half, env.bounds.MinX), MinY: y0, MaxX: math.Min(c+half, env.bounds.MaxX), MaxY: y1}
		if err := add("straddle", e); err != nil {
			return nil, err
		}
	}

	// Block: 4 cycles of [insert, 2 contained, 5 straddling]. The two
	// contained queries that follow each insert — the first of them pays
	// for the new epoch — and the objects inserted are the workload's;
	// the seed orders the cycles and the straddling queries.
	strad := rng.Perm(ingestStraddling)
	for _, c := range rng.Perm(ingestCycles) {
		s.block = append(s.block, []step{insertStep(c)}, []step{step(2 * c)}, []step{step(2*c + 1)})
		for _, i := range strad[5*c : 5*c+5] {
			s.block = append(s.block, []step{step(ingestContained + i)})
		}
	}

	// Inserts copy the attributes of a random existing object to a
	// jittered location, so new objects follow the corpus density and
	// land in every shard. Each (rep, k) has its own generator, so
	// inserts do not depend on how many repetitions a run makes.
	insertSeed := pool.Int63()
	s.newInsert = func(rep, k int) op {
		r := rand.New(rand.NewSource(insertSeed + int64(rep)*ingestCycles + int64(k)))
		objs := make([]asrs.Object, ingestBatch)
		for i := range objs {
			src := env.ds.Objects[r.Intn(len(env.ds.Objects))]
			objs[i] = asrs.Object{
				Loc: asrs.Point{
					X: clampF(src.Loc.X+(r.Float64()-0.5)*a, env.bounds.MinX, env.bounds.MaxX),
					Y: clampF(src.Loc.Y+(r.Float64()-0.5)*b, env.bounds.MinY, env.bounds.MaxY),
				},
				Values: append([]asrs.Value(nil), src.Values...),
			}
		}
		return op{kind: kindInsert, class: "insert", objs: objs, body: insertBody(env, objs)}
	}
	return s, nil
}

// insertBody renders objects as a POST /v1/insert body: categorical
// values travel as their domain labels.
func insertBody(env *servingEnv, objs []asrs.Object) []byte {
	schema := env.ds.Schema
	wobjs := make([]wire.InsertObject, len(objs))
	for i, o := range objs {
		vals := make(map[string]any, schema.Len())
		for j := 0; j < schema.Len(); j++ {
			at := schema.At(j)
			if at.Kind == asrs.Categorical {
				vals[at.Name] = at.Domain[o.Values[j].Cat]
			} else {
				vals[at.Name] = o.Values[j].Num
			}
		}
		wobjs[i] = wire.InsertObject{X: o.Loc.X, Y: o.Loc.Y, Values: vals}
	}
	return mustJSON(wire.Insert{Objects: wobjs})
}

func clampF(v, lo, hi float64) float64 {
	return math.Max(lo, math.Min(hi, v))
}

// poolSeed seeds the generator that draws each workload's distinct
// queries.
const poolSeed = 20190801

// generate materialises a workload's schedule for a seed.
//
// The distinct queries of a workload are part of its definition: they
// are drawn from the pinned corpus with a pinned generator (pool) and do
// not change with -seed. An exact search's cost is chaotic in its input
// — moving (a,b) by 1 % moves one query's cost by up to 10×, and the
// mean over 48 freshly drawn queries moves ±20 % from seed to seed — so
// a seed-drawn query set would bury any change under sampling noise.
// What -seed does decide is everything that leaves the multiset of work
// per block unchanged: the order of operations, which client sends which
// half of a pair, which query shares a cycle with which insert, and the
// objects inserted.
func (w *workload) generate(env *servingEnv, seed int64) (*schedule, error) {
	h := int64(0)
	for _, c := range w.name {
		h = h*131 + int64(c)
	}
	pool := rand.New(rand.NewSource(poolSeed + w.poolSalt + h))
	return w.gen(env, pool, rand.New(rand.NewSource(seed*1_000_003+h)))
}
