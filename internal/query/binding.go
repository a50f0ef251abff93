package query

import (
	"context"

	"asrs"
	"asrs/internal/shard"
	"asrs/internal/wire"
)

// Binding is the executor's view of a serving backend. The frontend
// sits above both the single engine and the shard router unchanged. A
// compiled request answers on one snapshot of the backend, the one Rounds
// captures: its example regions are represented on that snapshot's corpus
// and its search reads that snapshot's views — a stream's rounds (Exec),
// a one-shot answer (Answer), and on an engine a batch's members.
type Binding interface {
	// Query answers one request already built, on a snapshot of its own.
	// Coverage is nil on unsharded backends.
	Query(ctx context.Context, req asrs.QueryRequest) (asrs.QueryResponse, *wire.Coverage)
	// QueryBatch answers a client-built batch of find plans, index-aligned
	// with pls, member i under ctxs[i]. On an engine every member's target
	// and search read one epoch; on a router each member is its own
	// session (Answer).
	QueryBatch(ctxs []context.Context, pls []*Plan) ([]asrs.QueryResponse, []*wire.Coverage)
	// Rounds opens the rounds of one request, at most n of them, under ctx
	// and captures the snapshot they answer on.
	Rounds(ctx context.Context, n int) Rounds
	// SearchOptions are the backend's serving defaults (the base for
	// δ pinning and MaxRS execution).
	SearchOptions() asrs.Options
}

// Rounds is one request's snapshot of a backend and the rounds it answers
// on it.
type Rounds interface {
	// Dataset is the snapshot's corpus: the one the request represents its
	// region targets and post-filters against. On a router reading it pins
	// and loads every shard whose breaker is closed and copies the merged
	// corpus, so a plan reads it only when it represents a region.
	Dataset() *asrs.Dataset
	// Round answers the stream's single-best request under the exclusions
	// so far; every call passes the first call's request with a longer
	// Exclude.
	Round(req asrs.QueryRequest) (asrs.QueryResponse, *wire.Coverage)
	// Answer answers a one-shot request, top-k included, on the snapshot.
	Answer(req asrs.QueryRequest) (asrs.QueryResponse, *wire.Coverage)
	// Close recycles what the rounds carry between calls. A stream
	// abandoned without it leaks nothing.
	Close()
}

// EngineBinding serves plans from a single asrs.Engine.
type EngineBinding struct {
	E *asrs.Engine
}

// Query implements Binding.
func (b EngineBinding) Query(ctx context.Context, req asrs.QueryRequest) (asrs.QueryResponse, *wire.Coverage) {
	return b.E.QueryCtx(ctx, req), nil
}

// QueryBatch implements Binding: the members' targets are represented on
// the current epoch, and the members are in flight together on it
// (Epoch.QueryBatchCtx).
func (b EngineBinding) QueryBatch(ctxs []context.Context, pls []*Plan) ([]asrs.QueryResponse, []*wire.Coverage) {
	ep := b.E.Epoch()
	out := make([]asrs.QueryResponse, len(pls))
	var reqs []asrs.QueryRequest
	var at []int // reqs[k] is member at[k]
	for i, pl := range pls {
		req, err := pl.Request(ep.Dataset())
		if err != nil {
			out[i].Err = err
			continue
		}
		pl.ApplyOptions(&req, b.SearchOptions())
		req.Ctx = ctxs[i]
		reqs, at = append(reqs, req), append(at, i)
	}
	for k, resp := range ep.QueryBatchCtx(context.Background(), reqs) {
		out[at[k]] = resp
	}
	return out, make([]*wire.Coverage, len(pls))
}

// Rounds implements Binding: the engine's rounds (asrs.Epoch.Rounds) on
// the epoch current now, each round one execution slot, every round after
// the first resuming the search the one before left. A one-shot Answer is
// Epoch.QueryCtx on that epoch, so it joins an identical search in flight.
func (b EngineBinding) Rounds(ctx context.Context, n int) Rounds {
	ep := b.E.Epoch()
	return engineRounds{ep.Rounds(ctx, n), ep, ctx}
}

type engineRounds struct {
	*asrs.Rounds
	ep  asrs.Epoch
	ctx context.Context
}

func (r engineRounds) Round(req asrs.QueryRequest) (asrs.QueryResponse, *wire.Coverage) {
	return r.Rounds.Round(req), nil
}

func (r engineRounds) Answer(req asrs.QueryRequest) (asrs.QueryResponse, *wire.Coverage) {
	return r.ep.QueryCtx(r.ctx, req), nil
}

// SearchOptions implements Binding.
func (b EngineBinding) SearchOptions() asrs.Options { return b.E.SearchOptions() }

// RouterBinding serves plans from the PR-9 shard router: each round
// scatter–gathers per the request's extent under the binding's partial
// policy.
type RouterBinding struct {
	R *shard.Router
	// Policy is the partial-result policy for every round (zero value =
	// the router's Strict default).
	Policy shard.PartialPolicy
}

// Query implements Binding.
func (b RouterBinding) Query(ctx context.Context, req asrs.QueryRequest) (asrs.QueryResponse, *wire.Coverage) {
	resp := b.R.Answer(ctx, req, b.Policy)
	return asrs.QueryResponse{Regions: resp.Regions, Results: resp.Results, Err: resp.Err}, &resp.Coverage
}

// QueryBatch implements Binding one member at a time, each in a session of
// its own: the router's parallelism is across shards, not across requests,
// and sequential members keep per-shard deadline budgets meaningful.
func (b RouterBinding) QueryBatch(ctxs []context.Context, pls []*Plan) ([]asrs.QueryResponse, []*wire.Coverage) {
	out := make([]asrs.QueryResponse, len(pls))
	covs := make([]*wire.Coverage, len(pls))
	for i, pl := range pls {
		out[i], covs[i] = Answer(ctxs[i], pl, b)
	}
	return out, covs
}

// Rounds implements Binding: one router session (shard.Session), whose
// rounds and one-shot answer are scatter–gather passes on the shard epochs
// it pinned.
func (b RouterBinding) Rounds(ctx context.Context, n int) Rounds { return b.R.Open(ctx, b.Policy) }

// SearchOptions implements Binding.
func (b RouterBinding) SearchOptions() asrs.Options { return b.R.Catalog().SearchOptions() }
