package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"runtime"

	"asrs"
	"asrs/internal/query"
	"asrs/internal/wire"
)

// Answer verification. Before a daemon is launched every operation's
// expected answer is computed in-process by an independent
// configuration — one merged engine with the aggregate pyramid disabled
// and a single kernel worker — and every response the daemon sends is
// checked against it (checkRows). A mismatch, a non-200 status or a
// stream that ends without its terminal row is a failed operation.

// oracleGrid is the oracle engine's grid-index granularity. The oracle
// was first tried without a grid index (plain DS-Search), which would be
// one more step away from the daemon's configuration; on POISyn n=8000
// that path returned a region at distance 0.3156 for an L2 f2 query
// whose optimum (GI-DS and the O(n²) baseline agree) is 0.1466, so it
// cannot serve as the reference. README.md lists this under findings.
const oracleGrid = 64

// referenceEngine builds the oracle engine over the serving corpus.
// Batches run in parallel with grouping off — each request is searched
// on its own — which roughly halves the oracle's wall time on two cores
// without changing any answer.
func referenceEngine(env *servingEnv) (*asrs.Engine, error) {
	return asrs.NewEngine(env.ds, asrs.EngineOptions{
		IndexGranularity:     oracleGrid,
		DisablePyramid:       true,
		DisableBatchGrouping: true,
		BatchParallelism:     runtime.NumCPU(),
		Search:               asrs.Options{Workers: 1},
	})
}

// libRequest returns the engine request an operation denotes; query
// text compiles through the same planner the daemon uses.
func libRequest(env *servingEnv, pl *query.Planner, o *op) (asrs.QueryRequest, error) {
	if o.kind == kindQuery {
		return o.req, nil
	}
	plan, err := pl.ParseAndPlan(o.text)
	if err != nil {
		return asrs.QueryRequest{}, err
	}
	return plan.Request(env.ds)
}

// expectation is what the oracle knows about one operation before the
// daemon runs: the optimal distance of its first row, how many rows its
// own greedy chain produced, and how many inserted objects the
// operation sees.
type expectation struct {
	dist  uint64
	rows  int
	epoch int
}

// verifier holds the oracle and the expectations of one run.
type verifier struct {
	env  *servingEnv
	eng  *asrs.Engine
	reqs []asrs.QueryRequest // library form of every distinct op

	static []expectation     // per distinct op; workloads without inserts
	perPos [][][]expectation // [rep][round][slot]; workloads with inserts
	// inserted is every object the run inserts, in order; an operation
	// at epoch e sees the corpus ++ inserted[:e].
	inserted []asrs.Object

	// memo caches the verdict per distinct (op, response): a static
	// workload repeats each response many times and the daemon is
	// deterministic, so each is checked against the oracle once.
	memo map[string]error
}

func (v *verifier) close() { v.eng.Close() }

func (v *verifier) at(rep, round, slot int, s step) expectation {
	if v.perPos != nil {
		return v.perPos[rep][round][slot]
	}
	return v.static[s]
}

// rowsOf is the number of answers a request asks for.
func rowsOf(req asrs.QueryRequest) int { return max(req.TopK, 1) }

// newVerifier runs the oracle over reps repetitions of the schedule's
// block, before any daemon is launched.
func newVerifier(env *servingEnv, sch *schedule, reps int) (*verifier, error) {
	eng, err := referenceEngine(env)
	if err != nil {
		return nil, err
	}
	v := &verifier{env: env, eng: eng, memo: map[string]error{}}
	pl := query.NewPlanner(env.ds.Schema, env.composites)
	v.reqs = make([]asrs.QueryRequest, len(sch.ops))
	for i := range sch.ops {
		if v.reqs[i], err = libRequest(env, pl, &sch.ops[i]); err != nil {
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
	}
	expect := func(resp asrs.QueryResponse, epoch int) (expectation, error) {
		if resp.Err != nil {
			return expectation{}, resp.Err
		}
		return expectation{dist: math.Float64bits(resp.Results[0].Dist), rows: len(resp.Regions), epoch: epoch}, nil
	}
	if sch.newInsert == nil {
		v.static = make([]expectation, len(sch.ops))
		for i, resp := range eng.QueryBatch(v.reqs) {
			if v.static[i], err = expect(resp, 0); err != nil {
				return nil, fmt.Errorf("reference answer of op %d: %w", i, err)
			}
		}
		return v, nil
	}

	// With inserts the corpus changes under the queries: walk the
	// schedule, batching the queries between two inserts.
	v.perPos = make([][][]expectation, reps)
	type pos struct{ rep, round, slot int }
	var pending []pos
	var batch []asrs.QueryRequest
	flush := func() error {
		for i, resp := range eng.QueryBatch(batch) {
			p := pending[i]
			e, err := expect(resp, len(v.inserted))
			if err != nil {
				return fmt.Errorf("reference answer at %+v: %w", p, err)
			}
			v.perPos[p.rep][p.round][p.slot] = e
		}
		pending, batch = pending[:0], batch[:0]
		return nil
	}
	for rep := 0; rep < reps; rep++ {
		v.perPos[rep] = make([][]expectation, len(sch.block))
		for r, round := range sch.block {
			v.perPos[rep][r] = make([]expectation, len(round))
			for c, st := range round {
				if !st.isInsert() {
					if rowsOf(v.reqs[st]) > 1 {
						return nil, fmt.Errorf("top-k queries beside inserts are not supported by the verifier")
					}
					pending = append(pending, pos{rep, r, c})
					batch = append(batch, v.reqs[st])
					continue
				}
				if err := flush(); err != nil {
					return nil, err
				}
				ins := sch.newInsert(rep, st.insertIndex())
				if err := eng.InsertBatch(ins.objs); err != nil {
					return nil, err
				}
				v.inserted = append(v.inserted, ins.objs...)
			}
		}
	}
	return v, flush()
}

// relTol is how far a region's recomputed distance may sit from the
// distance the daemon reported for it. Integer composites agree
// exactly; real-valued ones sum in a different order.
const relTol = 1e-9

// checkRows verifies the result rows of one response to distinct op i.
//
// Distances are canonical and compared bit for bit with the oracle's.
// Regions are not: every placement covering the same objects ties, and
// which representative a search returns depends on its path (grid
// index or not, shard bands or merged corpus), so a region is checked
// for what it must satisfy instead — the requested size, inside the
// extent, clear of every exclusion, and covering objects whose
// representation really lies at the reported distance. Rows after the
// first are the best answers avoiding the daemon's own earlier rows, so
// the oracle is asked that same question.
func (v *verifier) checkRows(i int, rows []wire.Result, exp expectation) error {
	req := v.reqs[i]
	if len(rows) != exp.rows {
		return fmt.Errorf("got %d results, want %d", len(rows), exp.rows)
	}
	ds := v.env.ds
	if exp.epoch > 0 {
		objs := make([]asrs.Object, 0, len(ds.Objects)+exp.epoch)
		ds = &asrs.Dataset{Schema: ds.Schema, Objects: append(append(objs, ds.Objects...), v.inserted[:exp.epoch]...)}
	}
	avoid := append([]asrs.Rect(nil), req.Exclude...)
	for r, row := range rows {
		region := wire.RectLib(row.Region)
		want := exp.dist
		if r > 0 {
			d, err := v.oracleDist(i, avoid)
			if err != nil {
				return fmt.Errorf("oracle for result %d: %w", r, err)
			}
			want = d
		}
		if math.Float64bits(row.Dist) != want {
			return fmt.Errorf("result %d: distance %v differs from the in-process reference %v", r, row.Dist, math.Float64frombits(want))
		}
		if math.Abs(region.Width()-req.A) > relTol*req.A || math.Abs(region.Height()-req.B) > relTol*req.B {
			return fmt.Errorf("result %d: region %v is not %g x %g", r, region, req.A, req.B)
		}
		if req.Within != nil && !req.Within.ContainsRect(region) {
			return fmt.Errorf("result %d: region %v leaves the extent %v", r, region, *req.Within)
		}
		for _, ex := range avoid {
			if region.IntersectsOpen(ex) {
				return fmt.Errorf("result %d: region %v overlaps excluded %v", r, region, ex)
			}
		}
		got := req.Query.Distance(asrs.Represent(ds, req.Query.F, region))
		if math.Abs(got-row.Dist) > relTol*math.Max(1, math.Abs(row.Dist)) {
			return fmt.Errorf("result %d: region %v lies at distance %v, response claims %v", r, region, got, row.Dist)
		}
		avoid = append(avoid, region)
	}
	return nil
}

// oracleDist asks the oracle for the best distance of distinct op i
// avoiding the given regions.
func (v *verifier) oracleDist(i int, avoid []asrs.Rect) (uint64, error) {
	if v.perPos != nil {
		return 0, fmt.Errorf("chained oracle queries need a static corpus")
	}
	req := v.reqs[i]
	req.TopK = 0
	req.Exclude = avoid
	resp := v.eng.QueryCtx(context.Background(), req)
	if resp.Err != nil {
		return 0, resp.Err
	}
	return math.Float64bits(resp.Results[0].Dist), nil
}

// memoized runs check once per distinct (op, response bytes) on static
// workloads; with inserts every position is its own question.
func (v *verifier) memoized(i int, raw []byte, check func() error) error {
	if v.perPos != nil {
		return check()
	}
	key := fmt.Sprintf("%d:%x", i, sha256.Sum256(raw))
	if err, ok := v.memo[key]; ok {
		return err
	}
	err := check()
	v.memo[key] = err
	return err
}

// elapsedField matches the one field of a response that differs
// between repeats of the same answer.
var elapsedField = regexp.MustCompile(`"elapsed_ms":[0-9.eE+-]+`)

// verifyQueryBody checks a /v1/query response body.
func (v *verifier) verifyQueryBody(i int, body []byte, exp expectation) error {
	return v.memoized(i, elapsedField.ReplaceAll(body, nil), func() error {
		var resp wire.Response
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("undecodable response: %w", err)
		}
		if resp.Error != "" {
			return fmt.Errorf("error response: %s", resp.Error)
		}
		return v.checkRows(i, resp.Results, exp)
	})
}

// readLines reads an NDJSON body line by line, calling onFirst when the
// first line has arrived. Decoding is left to the caller so it can stay
// outside the timed interval.
func readLines(r io.Reader, onFirst func()) ([][]byte, error) {
	br := bufio.NewReader(r)
	var lines [][]byte
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			if len(lines) == 0 {
				onFirst()
			}
			lines = append(lines, line)
		}
		if err == io.EOF {
			return lines, nil
		}
		if err != nil {
			return lines, err
		}
	}
}

// verifySearchLines checks a streamed /v1/search response: the terminal
// done row — a stream without one was truncated — and every result row.
func (v *verifier) verifySearchLines(i int, lines [][]byte, exp expectation) error {
	raw := elapsedField.ReplaceAll(bytes.Join(lines, nil), nil)
	return v.memoized(i, raw, func() error {
		var rows []wire.Result
		for n, line := range lines {
			var row wire.SearchRow
			if err := json.Unmarshal(line, &row); err != nil {
				return fmt.Errorf("undecodable stream row %d: %w", n, err)
			}
			switch {
			case row.Error != "":
				return fmt.Errorf("error row: %s", row.Error)
			case row.Done:
				if n != len(lines)-1 || row.Count != len(rows) {
					return fmt.Errorf("terminal row at line %d of %d counts %d results, stream carried %d", n+1, len(lines), row.Count, len(rows))
				}
				return v.checkRows(i, rows, exp)
			case row.Result != nil:
				rows = append(rows, *row.Result)
			}
		}
		return fmt.Errorf("stream truncated after %d rows: no terminal row", len(rows))
	})
}

// verifyInsertBody checks a /v1/insert acknowledgement.
func verifyInsertBody(body []byte, want int) error {
	var resp wire.InsertResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("undecodable insert response: %w", err)
	}
	if resp.Ingested != want {
		return fmt.Errorf("insert acknowledged %d objects, sent %d", resp.Ingested, want)
	}
	return nil
}
