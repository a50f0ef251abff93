// Package server is the HTTP serving layer over asrs.Engine or a shard
// router: a JSON API (POST /v1/query, POST /v1/batch, POST /v1/search,
// POST /v1/insert, GET /healthz, GET /readyz, GET /stats). Every request
// comes in through one door — drain registration and admission control
// (bounded in-flight queue, 429 load shedding) — and is searched on the
// goroutine that received it, through the one query.Binding of the
// server's mode. Concurrent queries meet in the engine: identical
// requests join one search in flight and searches queue for a core.
// Per-query deadlines are honoured at the engine's cancellation points
// (slot queue, join wait, each kernel space) and surface as 504. See
// DESIGN.md §7.
package server

import (
	"time"

	"asrs"
	"asrs/internal/wire"
)

// The wire schema lives in internal/wire — one package shared by the
// daemon, `asrsquery -json`, and the query-language frontend — and is
// aliased here so the serving code and its tests keep their historical
// names.

type (
	// Rect is the wire form of an axis-parallel rectangle.
	Rect = wire.Rect
	// Point is the wire form of a planar location.
	Point = wire.Point
	// Query is one similarity-query request.
	Query = wire.Query
	// Result is one answer region.
	Result = wire.Result
	// Response is the answer to one Query.
	Response = wire.Response
	// Coverage is the wire form of a routed answer's shard coverage.
	Coverage = wire.Coverage
	// SkippedShard names one shard a routed answer had to skip, and why.
	SkippedShard = wire.SkippedShard
	// Batch is the POST /v1/batch request body.
	Batch = wire.Batch
	// BatchResponse is the POST /v1/batch response body.
	BatchResponse = wire.BatchResponse
	// InsertObject is one object of a POST /v1/insert request.
	InsertObject = wire.InsertObject
	// Insert is the POST /v1/insert request body.
	Insert = wire.Insert
	// InsertResponse acknowledges a POST /v1/insert.
	InsertResponse = wire.InsertResponse
	// Search is the POST /v1/search request body (query language).
	Search = wire.Search
	// SearchRow is one NDJSON line of a streamed search response.
	SearchRow = wire.SearchRow
)

// ParseNorm maps the wire norm name to the library constant.
func ParseNorm(s string) (asrs.Norm, error) { return wire.ParseNorm(s) }

// RectWire converts a library rectangle to its wire form.
func RectWire(r asrs.Rect) Rect { return wire.RectWire(r) }

// RectLib converts a wire rectangle to the library form.
func RectLib(r Rect) asrs.Rect { return wire.RectLib(r) }

// ResponseWire converts an engine response to the wire schema.
// asrsquery -json uses it too, so CLI and daemon emit one format.
func ResponseWire(resp asrs.QueryResponse, elapsed time.Duration) Response {
	return wire.ResponseWire(resp, elapsed)
}
