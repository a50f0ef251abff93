// Package wire is the one JSON schema shared by the daemon
// (internal/server), `asrsquery -json`, and the query-language frontend
// (internal/query): request/response shapes, the error taxonomy, and
// the conversions between wire and library forms. Having a single
// package means CLI output, server responses, and compiled query plans
// all target the same field names and failure classes.
package wire

import (
	"fmt"
	"time"

	"asrs"
	"asrs/internal/shard"
)

// Rect is the wire form of an axis-parallel rectangle.
type Rect struct {
	MinX float64 `json:"min_x"`
	MinY float64 `json:"min_y"`
	MaxX float64 `json:"max_x"`
	MaxY float64 `json:"max_y"`
}

// Point is the wire form of a planar location.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Query is one similarity-query request. The target representation
// comes either from Target directly (the "virtual region" usage) or is
// computed from an example Region; exactly one must be set. The server
// compiles it to the plan /v1/search compiles query text to
// (query.Planner.PlanWire).
type Query struct {
	// Composite names the serving composite aggregator (the daemon's
	// registry key; GET /stats lists the registered names).
	Composite string `json:"composite"`
	// A, B are the answer region's width and height. When an example
	// Region is given they default to its width and height.
	A float64 `json:"a,omitempty"`
	B float64 `json:"b,omitempty"`
	// Target is the aggregate representation to match.
	Target []float64 `json:"target,omitempty"`
	// Region is the query-by-example alternative: the server computes
	// Target from the objects inside it, on the snapshot the query
	// searches (an insert that lands meanwhile reaches neither).
	Region *Rect `json:"region,omitempty"`
	// ExcludeRegion excludes the example Region from the answer set
	// (without it, an example region is its own zero-distance answer).
	ExcludeRegion bool `json:"exclude_region,omitempty"`
	// Weights are the per-dimension distance weights (nil = unit).
	Weights []float64 `json:"weights,omitempty"`
	// Norm is "l1" (default) or "l2".
	Norm string `json:"norm,omitempty"`
	// TopK asks for the k best non-overlapping regions (0 or 1 = best).
	TopK int `json:"top_k,omitempty"`
	// Exclude lists rectangles no answer region may overlap.
	Exclude []Rect `json:"exclude,omitempty"`
	// Delta selects the (1+δ)-approximate search (0 = exact).
	Delta float64 `json:"delta,omitempty"`
	// Extent restricts answers to regions contained in the closed
	// rectangle. On a sharded server this is the routing key (extents
	// inside one shard's slab answer from that shard alone); on a
	// single-engine server it runs the windowed search directly.
	Extent *Rect `json:"extent,omitempty"`
	// Partial is the shard partial-result policy: "strict" (default —
	// fail with shard_unavailable if any needed shard is down) or
	// "best_effort" (answer from survivors, report skips in coverage).
	// Only valid on a sharded server.
	Partial string `json:"partial,omitempty"`
	// TimeoutMS bounds this query individually; 0 selects the server's
	// default, and values above the server's maximum are clamped.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Result is one answer region.
type Result struct {
	Region Rect      `json:"region"`
	Point  Point     `json:"point"`
	Dist   float64   `json:"dist"`
	Rep    []float64 `json:"rep"`
}

// Response is the answer to one Query.
type Response struct {
	Results []Result `json:"results,omitempty"`
	// Error is the failure message ("" on success). On /v1/query the
	// HTTP status carries the class (400 invalid, 504 deadline, 503
	// drain/shed, 500 server fault); on /v1/batch the HTTP status is
	// 200 for the envelope and each response's Status carries its own
	// class instead, so batch clients can retry timeouts without
	// string-matching error text.
	Error string `json:"error,omitempty"`
	// Code is the stable machine-readable failure class (see the
	// taxonomy in errors.go: bad_request, overloaded, draining,
	// canceled, deadline, internal_panic, internal). Empty on success.
	Code string `json:"code,omitempty"`
	// Retryable reports whether the same request may succeed if
	// retried later or on another replica. False on success.
	Retryable bool `json:"retryable,omitempty"`
	// Status is the per-query HTTP-style status code, set on batch
	// responses (0 on /v1/query, whose transport status says the same).
	Status int `json:"status,omitempty"`
	// Coverage reports, on a sharded server, which shards produced this
	// answer and which were skipped (best_effort answers may be partial;
	// a complete answer has an empty skip list). Nil on single-engine
	// servers.
	Coverage  *Coverage `json:"coverage,omitempty"`
	ElapsedMS float64   `json:"elapsed_ms"`
}

// Coverage is a routed answer's shard coverage and SkippedShard one
// shard it had to skip, and why: the router's own types, which carry the
// wire field names.
type (
	Coverage     = shard.Coverage
	SkippedShard = shard.SkippedShard
)

// Batch is the POST /v1/batch request body.
type Batch struct {
	Queries []Query `json:"queries"`
}

// InsertObject is one object of a POST /v1/insert request. Values is
// keyed by attribute name; categorical attributes take their domain
// label as a string, numeric attributes a number. Every attribute of
// the serving schema must be present.
type InsertObject struct {
	X      float64        `json:"x"`
	Y      float64        `json:"y"`
	Values map[string]any `json:"values"`
}

// Insert is the POST /v1/insert request body. The whole batch is one
// atomic durable unit: either every object is acknowledged (and
// survives a crash, per the WAL sync policy) or none is.
type Insert struct {
	Objects []InsertObject `json:"objects"`
}

// InsertResponse acknowledges a POST /v1/insert. Ingested counts the
// objects of THIS request; TotalIngested every object ingested since
// the seed corpus (including recovered ones). Failures use the standard
// error Response shape instead.
type InsertResponse struct {
	Ingested      int     `json:"ingested"`
	TotalIngested int64   `json:"total_ingested"`
	ElapsedMS     float64 `json:"elapsed_ms"`
}

// BatchResponse is the POST /v1/batch response body; Responses is
// index-aligned with the request's Queries, and per-query failures land
// in the corresponding Response.Error without failing the batch.
type BatchResponse struct {
	Responses []Response `json:"responses"`
	ElapsedMS float64    `json:"elapsed_ms"`
}

// Search is the POST /v1/search request body: a query expressed in the
// declarative language (DESIGN.md §12) instead of the struct schema.
type Search struct {
	// Q is the query text, e.g.
	// "find top 3 similar to region(103.8,1.29,103.85,1.31) under @category excluding example".
	Q string `json:"q"`
	// Partial is the shard partial-result policy (see Query.Partial).
	Partial string `json:"partial,omitempty"`
	// TimeoutMS bounds the whole search (see Query.TimeoutMS).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// SearchRow is one NDJSON line of a streamed POST /v1/search response.
// Exactly one of Result / Done / Error forms is populated per line:
// result rows carry Result and Rank; the final row carries Done (with
// Count and ElapsedMS); error rows carry Error/Code/Retryable and
// terminate the stream.
type SearchRow struct {
	Rank   int     `json:"rank,omitempty"`
	Result *Result `json:"result,omitempty"`
	// Done marks the terminal success row.
	Done  bool `json:"done,omitempty"`
	Count int  `json:"count,omitempty"`
	// Coverage rides the terminal row on sharded servers.
	Coverage  *Coverage `json:"coverage,omitempty"`
	ElapsedMS float64   `json:"elapsed_ms,omitempty"`
	Error     string    `json:"error,omitempty"`
	Code      string    `json:"code,omitempty"`
	Retryable bool      `json:"retryable,omitempty"`
}

// ParseNorm maps the wire norm name to the library constant.
func ParseNorm(s string) (asrs.Norm, error) {
	switch s {
	case "", "l1", "L1":
		return asrs.L1, nil
	case "l2", "L2":
		return asrs.L2, nil
	}
	return asrs.L1, fmt.Errorf("unknown norm %q (want l1 or l2)", s)
}

// RectWire converts a library rectangle to its wire form.
func RectWire(r asrs.Rect) Rect {
	return Rect{MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY}
}

// RectLib converts a wire rectangle to the library form.
func RectLib(r Rect) asrs.Rect {
	return asrs.Rect{MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY}
}

// ResponseWire converts an engine response to the wire schema.
// asrsquery -json uses it too, so CLI and daemon emit one format.
func ResponseWire(resp asrs.QueryResponse, elapsed time.Duration) Response {
	out := Response{ElapsedMS: float64(elapsed.Microseconds()) / 1e3}
	if resp.Err != nil {
		out.Error = resp.Err.Error()
		_, out.Code, out.Retryable = Classify(resp.Err)
		return out
	}
	out.Results = make([]Result, len(resp.Regions))
	for i := range resp.Regions {
		out.Results[i] = Result{
			Region: RectWire(resp.Regions[i]),
			Point:  Point{X: resp.Results[i].Point.X, Y: resp.Results[i].Point.Y},
			Dist:   resp.Results[i].Dist,
			Rep:    resp.Results[i].Rep,
		}
	}
	return out
}
