package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"asrs/internal/faultinject"
	"asrs/internal/query"
	"asrs/internal/shard"
	"asrs/internal/wire"
)

// handleSearch serves POST /v1/search: the query-language front door.
// The body is a wire.Search ({"q": "find …"}). EXPLAIN queries answer
// with one JSON document (the plan report); executable queries stream
// NDJSON — one wire.SearchRow per answer as each greedy round finishes,
// then a terminal done row. The first row is on the wire before later
// rounds have run: time-to-first-result is one round, not k.
//
// Search rounds bypass the coalescer (each round is its own engine or
// router call under the stream's context) but register with the drain
// like batch work, so Shutdown waits for an in-flight stream before
// closing engines. Admission holds one token for the stream's lifetime.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.nReceived.Add(1)
	if !s.admit(w, 1) {
		return
	}
	defer s.release(1)
	var sq wire.Search
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(&sq); err != nil {
		s.nBadReqs.Add(1)
		writeError(w, http.StatusBadRequest, CodeBadRequest, false, "invalid request body: %v", err)
		return
	}
	pl, err := s.planner.ParseAndPlan(sq.Q)
	if err != nil {
		s.nBadReqs.Add(1)
		writeError(w, http.StatusBadRequest, CodeBadRequest, false, "%v", err)
		return
	}
	policy, err := s.searchPolicy(sq.Partial)
	if err != nil {
		s.nBadReqs.Add(1)
		writeError(w, http.StatusBadRequest, CodeBadRequest, false, "%v", err)
		return
	}

	if pl.Explain {
		writeJSON(w, http.StatusOK, pl.Report(s.binding(policy).Dataset(), s.router != nil))
		return
	}

	// Deadline resolution matches buildRequest: the query's own timeout
	// clause, clamped by the operator's ceiling, under the serving
	// context so drain cancellation reaches every round.
	if sq.TimeoutMS < 0 || pl.TimeoutMS < 0 {
		s.nBadReqs.Add(1)
		writeError(w, http.StatusBadRequest, CodeBadRequest, false, "timeout_ms must be non-negative")
		return
	}
	timeout := s.cfg.Timeout
	if pl.TimeoutMS > 0 {
		timeout = time.Duration(pl.TimeoutMS) * time.Millisecond
	}
	if sq.TimeoutMS > 0 {
		timeout = time.Duration(sq.TimeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(s.base, timeout)
	defer cancel()
	stopWatch := context.AfterFunc(r.Context(), cancel)
	defer stopWatch()

	// Drain registration, like the batch and routed paths.
	s.drainMu.RLock()
	if s.draining.Load() {
		s.drainMu.RUnlock()
		s.writeDraining(w)
		return
	}
	s.inflight.Add(1)
	s.drainMu.RUnlock()
	defer s.inflight.Done()

	st, err := query.Exec(ctx, pl, s.binding(policy))
	if err != nil {
		s.nBadReqs.Add(1)
		writeError(w, http.StatusBadRequest, CodeBadRequest, false, "%v", err)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		row, ok := st.Next()
		if !ok {
			break
		}
		enc.Encode(wire.SearchRow{
			Rank: row.Rank,
			Result: &wire.Result{
				Region: wire.RectWire(row.Region),
				Point:  wire.Point{X: row.Result.Point.X, Y: row.Result.Point.Y},
				Dist:   row.Result.Dist,
				Rep:    row.Result.Rep,
			},
		})
		if flusher != nil {
			flusher.Flush()
		}
		// Chaos hook: a per-round stall makes streamed laziness visible
		// to tests — early rows arrive while later rounds sleep here.
		if f, ok := faultinject.Check("server.search.round"); ok && f.Action == faultinject.ActSleep {
			f.Sleep()
		}
	}
	if err := st.Err(); err != nil {
		// Headers are gone; the error travels as the terminal row.
		status, code, retryable := classify(err)
		if status == http.StatusGatewayTimeout {
			s.nTimeouts.Add(1)
		}
		enc.Encode(wire.SearchRow{Error: err.Error(), Code: code, Retryable: retryable})
		if flusher != nil {
			flusher.Flush()
		}
		return
	}
	s.ewma.Observe(time.Since(start))
	enc.Encode(wire.SearchRow{
		Done:      true,
		Count:     st.Emitted(),
		Coverage:  st.Coverage(),
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1e3,
	})
	if flusher != nil {
		flusher.Flush()
	}
}

// searchPolicy resolves the effective partial policy for a search
// stream: the request's (router mode only, matching /v1/query), else
// the server default, else strict.
func (s *Server) searchPolicy(p string) (shard.PartialPolicy, error) {
	switch p {
	case "":
	case string(shard.Strict), string(shard.BestEffort):
		if s.router == nil {
			return "", fmt.Errorf("partial is only valid on a sharded server")
		}
		return shard.PartialPolicy(p), nil
	default:
		return "", fmt.Errorf("unknown partial policy %q (want strict or best_effort)", p)
	}
	if s.cfg.DefaultPartial != "" {
		return shard.PartialPolicy(s.cfg.DefaultPartial), nil
	}
	return shard.Strict, nil
}
