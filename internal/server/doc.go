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
