package query

import (
	"context"

	"asrs"
	"asrs/internal/wire"
)

// Row is one streamed answer.
type Row struct {
	// Rank is the 1-based position in the greedy answer sequence.
	Rank   int
	Region asrs.Rect
	// Result carries the answer point, distance and representation. For
	// maximize plans Dist is the maximized objective (the enclosed
	// weight) and Rep is nil.
	Result asrs.Result
}

// Stream is a lazy result iterator: each Next issues at most the
// backend work needed for ONE more answer (one greedy round per
// candidate), so the first result is on the wire before later rounds
// have run at all. It pulls asrs.Candidates, asrs.Greedy's lazy form and
// the one top-k loop with both stop rules, and keeps only its own work:
// post-filters (a rejected region still joins the exclusions), the scan
// budget, row numbering, and closing the rounds after the last row; a
// filtered stream whose rounds run dry ends without error, even with zero
// rows. Its rounds are one Binding.Rounds: on an engine, the search a
// one-shot top-k's rounds run in (asrs.Answer's driver); on a router, the
// session a one-shot request's rounds run in (shard.Session), whose
// coverage is the request's so far. So an unfiltered stream's rows —
// regions included — and its coverage are the one-shot answer's.
//
// A Stream is single-goroutine; it holds no locks, no background work
// and, between rounds, no execution slot. Abandoning it mid-iteration
// leaks nothing.
type Stream struct {
	ctx context.Context
	pl  *Plan
	b   Binding
	r   Rounds
	ds  *asrs.Dataset // nil unless the plan represents a region (Plan.corpus)

	base    asrs.QueryRequest // the single-best request every round answers
	cands   asrs.Candidates
	filters []boundFilter
	reps    [][]float64 // accepted representations (diversity chain)

	emitted int
	rounds  int
	done    bool
	err     error
	cov     *wire.Coverage
}

// boundFilter is a dissimilarity filter with its target representation
// resolved against the stream's dataset snapshot.
type boundFilter struct {
	f      Filter
	target []float64
}

// Exec binds a plan to a backend and returns the lazy stream. The
// stream's rounds are opened here, and with them the snapshot is captured
// once, so every round and every filter evaluation sees one coherent
// epoch: the engine's, or on a router each shard's epoch the session
// pinned. Its corpus is read only for a plan that represents a region on
// it (Plan.corpus): a routed stream that represents none loads only the
// shards its rounds search. No round runs before the first Next.
func Exec(ctx context.Context, pl *Plan, b Binding) (*Stream, error) {
	if pl.Explain {
		return nil, planErrf("explain plans report, they do not execute")
	}
	s := &Stream{ctx: ctx, pl: pl, b: b, r: b.Rounds(ctx, pl.rounds())}
	s.ds = pl.corpus(s.r)
	if pl.Max != nil {
		s.r.Close() // the maximize form reads the corpus alone
		return s, nil
	}
	req, err := pl.Request(s.ds)
	if err != nil {
		s.r.Close()
		return nil, err
	}
	pl.ApplyOptions(&req, b.SearchOptions())
	req.TopK = 0
	s.base = req
	s.cands = asrs.NewCandidates(req.Exclude)
	for _, f := range pl.Filters {
		s.filters = append(s.filters, boundFilter{f: f, target: f.place.vector(s.ds)})
	}
	return s, nil
}

// Next returns the next accepted answer. ok=false means the stream
// ended: all k answers emitted, the greedy sequence ended, the scan cap
// was hit, or an error occurred (check Err).
func (s *Stream) Next() (Row, bool) {
	if s.done || s.err != nil {
		return Row{}, false
	}
	if s.pl.Max != nil {
		return s.maxrs()
	}
	k := s.pl.K()
	for s.emitted < k && s.rounds < s.pl.rounds() {
		region, res, ok := s.cands.Next(s.round)
		if !ok {
			return s.end(s.cands.Err())
		}
		if !s.accept(region, res) {
			continue
		}
		s.emitted++
		if s.pl.DiverseBy > 0 {
			s.reps = append(s.reps, res.Rep)
		}
		if s.emitted == k {
			s.r.Close() // no round follows the last row
		}
		return Row{Rank: s.emitted, Region: region, Result: res}, true
	}
	return s.end(nil)
}

// round runs one backend round: the single-best request under the greedy
// sequence's exclusions so far.
func (s *Stream) round(excl []asrs.Rect) (asrs.Rect, asrs.Result, error) {
	req := s.base
	req.Exclude = excl
	s.rounds++
	resp, cov := s.r.Round(req)
	s.cov = cov // the session's coverage so far; nil on an engine
	region, res := resp.Best()
	return region, res, resp.Err
}

// end ends the stream, with err as its terminal error, and closes its
// rounds.
func (s *Stream) end(err error) (Row, bool) {
	s.done = true
	s.err = err
	s.r.Close()
	return Row{}, false
}

// accept applies the plan's post-filters to one candidate.
func (s *Stream) accept(region asrs.Rect, res asrs.Result) bool {
	for i := range s.filters {
		bf := &s.filters[i]
		rep := asrs.Represent(s.ds, bf.f.Comp, region)
		d := asrs.Distance(s.pl.Norm, rep, bf.target, bf.f.Weights)
		if !(d >= bf.f.By) {
			return false
		}
	}
	if s.pl.DiverseBy > 0 {
		for _, prior := range s.reps {
			d := asrs.Distance(s.pl.Norm, res.Rep, prior, s.pl.Weights)
			if !(d >= s.pl.DiverseBy) {
				return false
			}
		}
	}
	return true
}

// maxrs runs the MaxRS aggregate form: one eager solve, one row.
func (s *Stream) maxrs() (Row, bool) {
	s.done = true
	mp := s.pl.Max
	pts := make([]asrs.MaxRSPoint, 0, len(s.ds.Objects))
	for i := range s.ds.Objects {
		o := &s.ds.Objects[i]
		w := 1.0
		if mp.AttrIdx >= 0 {
			w = o.Values[mp.AttrIdx].Num
		}
		pts = append(pts, asrs.MaxRSPoint{Loc: o.Loc, Weight: w})
	}
	opt := s.b.SearchOptions()
	opt.Ctx = s.ctx
	res, _, err := asrs.MaxRS(pts, mp.A, mp.B, opt)
	if err != nil {
		s.err = err
		return Row{}, false
	}
	s.emitted = 1
	return Row{Rank: 1, Region: res.Region, Result: asrs.Result{Point: res.Corner, Dist: res.Weight}}, true
}

// Answer answers a find plan in one call — /v1/query, a routed /v1/batch
// member — on one snapshot of b, the one Rounds captures: its example
// region is represented on that snapshot's corpus, and its search reads
// that snapshot's views. On an engine it joins an identical search in
// flight on that epoch.
func Answer(ctx context.Context, pl *Plan, b Binding) (asrs.QueryResponse, *wire.Coverage) {
	r := b.Rounds(ctx, pl.K())
	defer r.Close()
	req, err := pl.Request(pl.corpus(r))
	if err != nil {
		return asrs.QueryResponse{Err: err}, nil
	}
	pl.ApplyOptions(&req, b.SearchOptions())
	return r.Answer(req)
}

// Err returns the stream's terminal error, if any.
func (s *Stream) Err() error { return s.err }

// Emitted returns how many rows the stream has produced.
func (s *Stream) Emitted() int { return s.emitted }

// Rounds returns how many backend rounds the stream has spent.
func (s *Stream) Rounds() int { return s.rounds }

// Coverage returns the shard coverage of the rounds run so far, the last
// its session reported (nil on unsharded backends).
func (s *Stream) Coverage() *wire.Coverage { return s.cov }

// Collect drains the stream into slices (the eager convenience used by
// tests and the CLI; servers iterate Next directly to stream).
func (s *Stream) Collect() ([]asrs.Rect, []asrs.Result, error) {
	var regions []asrs.Rect
	var results []asrs.Result
	for {
		row, ok := s.Next()
		if !ok {
			break
		}
		regions = append(regions, row.Region)
		results = append(results, row.Result)
	}
	return regions, results, s.Err()
}
