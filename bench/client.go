package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"asrs"
	"asrs/internal/server"
)

// opResult is one executed operation: its timestamps, and the raw
// response kept for verification after the clock has stopped.
type opResult struct {
	start, first, end time.Time
	status            int
	body              []byte   // /v1/query, /v1/insert
	lines             [][]byte // /v1/search
	err               error    // transport failure
}

// newHTTPClient returns the load generator's client: keep-alive
// connections, one per closed-loop client.
func newHTTPClient(clients int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        clients,
			MaxIdleConnsPerHost: clients,
		},
	}
}

// doOp sends one operation and reads the response to its last byte.
// first is the first NDJSON row on /v1/search and the first response
// byte (the status line) elsewhere.
func doOp(hc *http.Client, base string, o *op) opResult {
	var r opResult
	req, err := http.NewRequest(http.MethodPost, base+o.kind.path(), bytes.NewReader(o.body))
	if err != nil {
		r.err = err
		return r
	}
	req.Header.Set("Content-Type", "application/json")
	r.start = time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		r.err = err
		return r
	}
	defer resp.Body.Close()
	r.status = resp.StatusCode
	if o.kind == kindSearch && resp.StatusCode == http.StatusOK {
		r.lines, r.err = readLines(resp.Body, func() { r.first = time.Now() })
	} else {
		r.first = time.Now()
		r.body, r.err = io.ReadAll(resp.Body)
	}
	r.end = time.Now()
	return r
}

// verify checks an executed operation against its expectation; i is
// the operation's index among the distinct ops (unused for inserts).
func (r *opResult) verify(v *verifier, i int, o *op, exp expectation) error {
	if r.err != nil {
		return r.err
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	switch o.kind {
	case kindSearch:
		return v.verifySearchLines(i, r.lines, exp)
	case kindInsert:
		return verifyInsertBody(r.body, len(o.objs))
	}
	return v.verifyQueryBody(i, r.body, exp)
}

// fetchStats reads the daemon's GET /stats document.
func fetchStats(hc *http.Client, base string) (server.Stats, error) {
	var st server.Stats
	resp, err := hc.Get(base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /stats: HTTP %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// statCounters are the /stats counters the benchmark reads, summed over
// shard engines on a sharded daemon.
type statCounters struct {
	received, shed, timeouts    int64
	batches, batchedRequests    int64
	queries, dedup, shared      int64
	ingested, compactions, errs int64
	folds                       int64
}

func countersOf(st server.Stats) statCounters {
	c := statCounters{
		received: st.Received, shed: st.Shed, timeouts: st.Timeouts,
		batches: st.Coalescer.Batches, batchedRequests: st.Coalescer.BatchedRequests,
	}
	add := func(e asrs.EngineStats) {
		c.queries += e.Queries
		c.dedup += e.DedupHits
		c.shared += e.PreparedShared
		c.ingested += e.Ingested
		c.compactions += e.Compactions
		c.errs += e.CompactionErrors
		c.folds += e.PyramidFolds
	}
	add(st.Engine)
	if st.Shards != nil {
		for _, sh := range st.Shards.Shards {
			if sh.Engine != nil {
				add(*sh.Engine)
			}
		}
	}
	return c
}

func (c statCounters) sub(o statCounters) statCounters {
	return statCounters{
		received: c.received - o.received, shed: c.shed - o.shed, timeouts: c.timeouts - o.timeouts,
		batches: c.batches - o.batches, batchedRequests: c.batchedRequests - o.batchedRequests,
		queries: c.queries - o.queries, dedup: c.dedup - o.dedup, shared: c.shared - o.shared,
		ingested: c.ingested - o.ingested, compactions: c.compactions - o.compactions, errs: c.errs - o.errs,
		folds: c.folds - o.folds,
	}
}

// waitQuiet polls /stats until the compaction counters have stopped
// moving (two equal reads 50 ms apart), so the state directory is
// measured with no compaction in flight.
func waitQuiet(hc *http.Client, base string) (statCounters, error) {
	var prev statCounters
	deadline := time.Now().Add(3 * time.Second)
	for i := 0; ; i++ {
		st, err := fetchStats(hc, base)
		if err != nil {
			return prev, err
		}
		cur := countersOf(st)
		if i > 0 && cur.compactions == prev.compactions && cur.errs == prev.errs {
			return cur, nil
		}
		if time.Now().After(deadline) {
			return cur, fmt.Errorf("compaction counters still moving after 3 s")
		}
		prev = cur
		time.Sleep(50 * time.Millisecond)
	}
}
