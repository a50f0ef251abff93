package query

import (
	"context"

	"asrs"
	"asrs/internal/shard"
	"asrs/internal/wire"
)

// Binding is the executor's view of a serving backend. The frontend
// sits above both the single engine and the shard router unchanged: a
// stream's rounds are one Rounds, opened by Exec, and the binding decides
// how each runs (a resumed engine search or a scatter–gather pass).
type Binding interface {
	// Query answers one engine-shaped request. Coverage is nil on
	// unsharded backends.
	Query(ctx context.Context, req asrs.QueryRequest) (asrs.QueryResponse, *wire.Coverage)
	// QueryBatch answers a client-built batch, index-aligned with reqs;
	// each request runs under its own Ctx, else ctx.
	QueryBatch(ctx context.Context, reqs []asrs.QueryRequest) ([]asrs.QueryResponse, []*wire.Coverage)
	// Rounds opens the rounds of one stream, at most n of them, under ctx
	// and captures the snapshot they answer on.
	Rounds(ctx context.Context, n int) Rounds
	// Dataset is the current epoch's logical corpus — the snapshot
	// region targets and post-filters are represented against.
	Dataset() *asrs.Dataset
	// SearchOptions are the backend's serving defaults (the base for
	// δ pinning and MaxRS execution).
	SearchOptions() asrs.Options
	// Routed reports whether answers come from a shard router (EXPLAIN
	// surfaces it).
	Routed() bool
}

// Rounds is one stream's rounds on one backend snapshot.
type Rounds interface {
	// Dataset is the snapshot's corpus: the one the stream represents its
	// region targets and post-filters against.
	Dataset() *asrs.Dataset
	// Round answers the stream's single-best request under the exclusions
	// so far; every call passes the first call's request with a longer
	// Exclude.
	Round(req asrs.QueryRequest) (asrs.QueryResponse, *wire.Coverage)
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

// QueryBatch implements Binding: the members in flight together on one
// epoch view (Engine.QueryBatchCtx).
func (b EngineBinding) QueryBatch(ctx context.Context, reqs []asrs.QueryRequest) ([]asrs.QueryResponse, []*wire.Coverage) {
	return b.E.QueryBatchCtx(ctx, reqs), make([]*wire.Coverage, len(reqs))
}

// Rounds implements Binding: the engine's rounds (asrs.Engine.Rounds) on
// the epoch current now, each round one execution slot, every round after
// the first resuming the search the one before left.
func (b EngineBinding) Rounds(ctx context.Context, n int) Rounds {
	return engineRounds{b.E.Rounds(ctx, n)}
}

type engineRounds struct{ *asrs.Rounds }

func (r engineRounds) Round(req asrs.QueryRequest) (asrs.QueryResponse, *wire.Coverage) {
	return r.Rounds.Round(req), nil
}

// Dataset implements Binding.
func (b EngineBinding) Dataset() *asrs.Dataset { return b.E.CurrentDataset() }

// SearchOptions implements Binding.
func (b EngineBinding) SearchOptions() asrs.Options { return b.E.SearchOptions() }

// Routed implements Binding.
func (b EngineBinding) Routed() bool { return false }

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

// QueryBatch implements Binding one request at a time: the router's
// parallelism is across shards, not across requests, and sequential
// rounds keep per-shard deadline budgets meaningful.
func (b RouterBinding) QueryBatch(ctx context.Context, reqs []asrs.QueryRequest) ([]asrs.QueryResponse, []*wire.Coverage) {
	out := make([]asrs.QueryResponse, len(reqs))
	covs := make([]*wire.Coverage, len(reqs))
	for i, req := range reqs {
		out[i], covs[i] = b.Query(ctx, req)
	}
	return out, covs
}

// Rounds implements Binding: one router session (shard.Session), whose
// rounds are scatter–gather passes on the shard epochs it pinned.
func (b RouterBinding) Rounds(ctx context.Context, n int) Rounds { return b.R.Open(ctx, b.Policy) }

// Dataset implements Binding: the merged corpus of a session's views.
func (b RouterBinding) Dataset() *asrs.Dataset {
	return b.R.Open(context.TODO(), b.Policy).Dataset()
}

// SearchOptions implements Binding.
func (b RouterBinding) SearchOptions() asrs.Options { return b.R.Catalog().SearchOptions() }

// Routed implements Binding.
func (b RouterBinding) Routed() bool { return true }
