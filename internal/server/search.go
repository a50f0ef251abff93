package server

import (
	"encoding/json"
	"net/http"
	"time"

	"asrs/internal/faultinject"
	"asrs/internal/query"
	"asrs/internal/wire"
)

// handleSearch serves POST /v1/search: the query-language front door.
// The body is a wire.Search ({"q": "find …"}). EXPLAIN queries answer
// with one JSON document (the plan report); executable queries stream
// NDJSON — one wire.SearchRow per answer as each greedy round finishes,
// then a terminal done row. The first row is on the wire before later
// rounds have run: time-to-first-result is one round, not k.
//
// Each round is one binding call under the stream's context, on this
// goroutine. Admission holds one token and the drain registration for
// the stream's lifetime, so Shutdown waits for an in-flight stream
// before closing engines.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.nReceived.Add(1)
	leave := s.enter(w)
	if leave == nil {
		return
	}
	defer leave(1)
	var sq wire.Search
	if err := readBody(w, r, &sq); err != nil {
		s.nBadReqs.Add(1)
		writeError(w, http.StatusBadRequest, wire.CodeBadRequest, false, "invalid request body: %v", err)
		return
	}
	pl, err := s.planner.ParseAndPlan(sq.Q)
	if err != nil {
		s.nBadReqs.Add(1)
		writeError(w, http.StatusBadRequest, wire.CodeBadRequest, false, "%v", err)
		return
	}
	backend, err := s.binding(sq.Partial)
	if err != nil {
		s.nBadReqs.Add(1)
		writeError(w, http.StatusBadRequest, wire.CodeBadRequest, false, "%v", err)
		return
	}

	if pl.Explain {
		// The report's limb probe reads the corpus of a snapshot of its own.
		snap := backend.Rounds(r.Context(), 0)
		writeJSON(w, http.StatusOK, pl.Report(snap.Dataset(), s.router != nil))
		snap.Close()
		return
	}

	// The request's timeout_ms, else the query's own timeout clause,
	// resolved as every front door resolves it (deadline).
	if sq.TimeoutMS < 0 {
		s.nBadReqs.Add(1)
		writeError(w, http.StatusBadRequest, wire.CodeBadRequest, false, "timeout_ms must be non-negative")
		return
	}
	ms := pl.TimeoutMS
	if sq.TimeoutMS > 0 {
		ms = sq.TimeoutMS
	}
	ctx, cancel := s.deadline(r, ms)
	defer cancel()

	st, err := query.Exec(ctx, pl, backend)
	if err != nil {
		s.nBadReqs.Add(1)
		writeError(w, http.StatusBadRequest, wire.CodeBadRequest, false, "%v", err)
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
	s.ewma.Observe(time.Since(start))
	if err := st.Err(); err != nil {
		// Headers are gone; the error travels as the terminal row.
		_, code, retryable := s.classify(err)
		enc.Encode(wire.SearchRow{Error: err.Error(), Code: code, Retryable: retryable})
		if flusher != nil {
			flusher.Flush()
		}
		return
	}
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
