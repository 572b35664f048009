// Package server implements hgpd's HTTP serving layer: a long-running
// partitioning daemon that amortizes the expensive decomposition embed
// (§4 of the paper) across requests and bounds worst-case work, which
// Feldmann-style hardness results say cannot be eliminated — only
// deadline-bounded and load-shed.
//
// Request lifecycle of POST /v1/partition, one stage method each
// (handlers.go):
//
//	parse            decode (bounded, unknown fields refused), size limits,
//	                 materialize, solver-parameter check (prepare)
//	keys             canonicalize under -canon; the decomposition key once,
//	                 the result key derived from it
//	result sources   memory, then (cluster mode) the key's replicas, each
//	                 entry through usableResult; a hit answers here
//	breaker          open: floor-only service (no_degrade shed 503)
//	admission        deadline clamp, then the deadline-ordered waiting
//	                 room (429 queue_full, 504 expired while queued)
//	solve            the anytime ladder, or the no_degrade path; the DP
//	                 tier reads the decomposition cache (hit skips §4)
//	store            complete DP results enter the result cache
//	encode           assignment, costs, per-tree diagnostics, timings
//
// POST /v1/graphs/{id}/partition, the session solve, shares the body
// decode, drain check, deadline clamp, admission and solve-error
// mapping (request.go) and runs decomposition repair with warm DP
// tables instead of the caches; POST /v1/graphs and the session
// restore share the solver-parameter check (build; the restore skips
// the size limits, which PATCH may grow a session past).
//
// Shutdown is graceful: Drain flips /v1/healthz to "draining" and
// rejects new solves with 503 while Shutdown waits for every in-flight
// solve to finish.
//
// With Config.Peers set the daemon joins a static shard group
// (DESIGN.md §13): a rendezvous-hash ring gives every cache key one
// owner, non-owners fetch the owner's copy over the internal
// /v1/peer/* surface (snapshot wire framing, validated like snapshot
// files) before building, and push their own builds owner-ward. Both
// entry kinds, decompositions and results, share one peer path: a
// table of kinds (handlers_peer.go) drives the GET and PUT handlers,
// the request-path fetch, the replica push and the repair pull.
// Retry/backoff, a per-peer circuit breaker, and health gossip bound
// the cost of dead or draining peers; every fetch failure falls back
// to the local solve path.
//
// Main entry points: New builds a Server from a Config; Server.Handler
// returns the http.Handler exposing /v1/partition, /v1/healthz,
// /v1/stats (JSON or Prometheus text via ?format=prometheus), and
// /debug/pprof/*; Server.Shutdown drains. Observability flows through
// internal/telemetry (request counters, queue gauges, per-phase latency
// histograms). API.md documents the wire format with runnable examples.
package server
