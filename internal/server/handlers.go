package server

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"time"

	"hierpart/internal/anytime"
	"hierpart/internal/cache"
	"hierpart/internal/canon"
	"hierpart/internal/faultinject"
	"hierpart/internal/graph"
	"hierpart/internal/hgp"
	"hierpart/internal/hierarchy"
	"hierpart/internal/instio"
	"hierpart/internal/telemetry"
)

// PartitionRequest is the POST /v1/partition body: an instio.Instance
// (graph + hierarchy + cost multipliers) plus the solver parameters
// (eps, trees, seed, fm_passes, flow_refine, max_states; zero values
// take the hgp.Solver defaults: Eps 0.5, Trees 4, FMPasses 4) and an
// optional per-request deadline.
type PartitionRequest struct {
	instio.Instance
	solverParams
	// TimeoutMS bounds this request's wall-clock budget; 0 uses the
	// server default, values above the server maximum are clamped.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// NoDegrade opts this request out of the degradation ladder: only
	// the full pipeline runs, and a missed deadline is a 504 rather
	// than a degraded 200. Use it when a lower-quality placement is
	// worse than no placement (e.g. offline jobs that will simply
	// retry with a bigger budget).
	NoDegrade bool `json:"no_degrade,omitempty"`
}

// PartitionResponse is the POST /v1/partition success body.
type PartitionResponse struct {
	// Assignment places every graph vertex on a hierarchy leaf.
	Assignment []int `json:"assignment"`
	// Cost is the Equation (1) objective of the placement on G.
	Cost float64 `json:"cost"`
	// TreeCost is the winning tree's Equation (3) cost (≥ Cost for
	// normalized cm, Proposition 1).
	TreeCost float64 `json:"tree_cost"`
	// TreeIndex identifies the winning decomposition tree.
	TreeIndex int `json:"tree_index"`
	// PerTreeCosts is the mapped cost of every tree's solution; null
	// marks a tree that produced no cost — either its solve failed (NaN
	// in hgp.Result.PerTreeCosts) or the portfolio's incumbent bound
	// pruned it (+Inf); neither sentinel is representable in JSON.
	// TreesPruned says how many nulls are prunes rather than failures.
	PerTreeCosts []*float64 `json:"per_tree_costs"`
	// TreesPruned counts trees skipped by portfolio pruning (their
	// finished placements provably could not have won); omitted when
	// zero.
	TreesPruned int `json:"trees_pruned,omitempty"`
	// Violation is the per-level relative capacity violation.
	Violation []float64 `json:"violation"`
	// States is the total DP state count across trees.
	States int `json:"states"`
	// CacheHit reports whether the decomposition came from the LRU —
	// when true the embed phase was skipped entirely.
	CacheHit bool `json:"cache_hit"`
	// ResultCacheHit reports that the returned placement is a
	// result-cache entry replayed verbatim: no decomposition, no DP.
	// CacheHit is false on such responses (the decomposition cache was
	// never consulted), and DecomposeMS/SolveMS are 0. Most such hits
	// skip admission too; a ladder request whose entry has no floor
	// verdict yet runs the floor rung first, and then also carries a
	// degradation block whose full_dp report says "cached": true. A
	// floor win over a cached DP result is not a result-cache hit.
	ResultCacheHit bool `json:"result_cache_hit,omitempty"`
	// PeerFetchHit reports that the answer's expensive artifact came
	// over the wire from its cluster owner instead of local work: the
	// decomposition (CacheHit false — the local LRU missed) or, with
	// ResultCacheHit true, the entire result. Bodies are bit-identical
	// to the locally produced equivalent; this flag is observability,
	// not a quality marker. Coalesced waiters behind a fetching request
	// do not set it.
	PeerFetchHit bool `json:"peer_fetch_hit,omitempty"`
	// CanonHit reports that this request canonicalized (-canon) and was
	// answered from a cache keyed by the label-invariant fingerprint —
	// either a decomposition hit (CacheHit) or a full-result hit
	// (ResultCacheHit). The hit may have been written by a different
	// user's isomorphic submission; the assignment was translated back
	// through this request's own permutation.
	CanonHit bool `json:"canon_hit,omitempty"`
	// ElapsedMS, DecomposeMS, SolveMS are wall-clock phase timings;
	// DecomposeMS is 0 on a cache hit. For a ladder response they
	// describe the winning tier (0/0 for a baseline win — that tier
	// has no decompose or DP phase).
	ElapsedMS   float64 `json:"elapsed_ms"`
	DecomposeMS float64 `json:"decompose_ms"`
	SolveMS     float64 `json:"solve_ms"`
	// Degradation reports how the anytime ladder resolved this request;
	// omitted when the request opted out with no_degrade (or the daemon
	// disables degradation).
	Degradation *DegradationResponse `json:"degradation,omitempty"`
}

// DegradationResponse is the `degradation` block of a ladder response:
// which tier produced the placement, whether that is a degradation from
// the full pipeline, and the per-tier post-mortems.
type DegradationResponse struct {
	// Tier names the rung that produced the returned placement:
	// "full_dp" or "baseline".
	Tier string `json:"tier"`
	// Degraded is true when the caller got anything less than the full
	// pipeline's complete answer.
	Degraded bool `json:"degraded"`
	// Partial marks a full_dp result assembled from the trees that
	// finished before the deadline (TreesDone of them) rather than all
	// requested trees.
	Partial   bool `json:"partial,omitempty"`
	TreesDone int  `json:"trees_done,omitempty"`
	// Tiers holds one report per ladder rung, in tier order.
	Tiers []anytime.TierReport `json:"tiers"`
}

func (s *Server) handlePartition(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST required")
		return
	}
	if !s.enter(w, drainingMsg) {
		return
	}
	defer s.inflight.Done()
	j := &partitionJob{start: time.Now()}
	s.reg.Counter("partition_requests_total").Inc()
	if !s.parsePartition(w, r, j) {
		return
	}
	s.partitionKeys(j)
	if s.resultSources(r.Context(), j) {
		s.writePartitionOK(w, j.start, &solveOutcome{res: j.memo.res, resultHit: true}, j.peer, j.cn)
		return
	}
	ctx, cancel, timeout := s.deadline(r, j.req.TimeoutMS)
	defer cancel()
	ctx, pfm := withPeerFetchMark(ctx)
	mode, settle, ok := s.breakerGate(w, j.noDegrade)
	if !ok {
		return
	}
	defer settle(false)
	done, ok := s.admit(w, ctx, j.start, timeout)
	if !ok {
		return
	}
	defer done()
	if err := faultinject.Fire(ctx, faultinject.ServerSolve); err != nil {
		s.reg.Counter("partition_errors_total").Inc()
		s.writeError(w, http.StatusInternalServerError, "solve_failed", err.Error())
		return
	}
	oc, err := s.solvePartition(ctx, j, mode)
	// A half-open probe: a successful full-service request (with the heap
	// back under the ceiling) closes the breaker; anything else re-opens
	// it and restarts the cooldown.
	settle(err == nil)
	if err != nil {
		s.writeSolveError(w, ctx, j.start, err, "during the solve")
		return
	}
	s.writePartitionOK(w, j.start, oc, pfm.hit.Load() || (j.peer && oc.resultHit), j.cn)
}

// partitionJob carries one /v1/partition request through its stages:
// parse, keys, result sources, breaker and admission, solve, store,
// encode.
type partitionJob struct {
	start time.Time
	req   PartitionRequest
	// g is the submission; gSolve the graph the solver runs on — the
	// canonical form when cn is non-nil, g otherwise.
	g, gSolve *graph.Graph
	H         *hierarchy.Hierarchy
	sv        hgp.Solver
	// cn is the canonical form when the submission canonicalized, and
	// perm its permutation, recorded with a decomposition this request
	// builds as provenance.
	cn        *canon.Form
	perm      []int
	noDegrade bool
	// dkey and rkey are the decomposition and result cache keys; each is
	// empty when no cache needs it.
	dkey, rkey string
	// memo is the result-cache entry a result source produced; fetched
	// marks one that came over the wire and peer one this request fetched
	// itself (coalesced waiters share the entry but not the attribution).
	memo          *resultEntry
	fetched, peer bool
}

// parsePartition is the parse stage: decode, then the shared instance
// and solver-parameter check. The response is written when it fails.
func (s *Server) parsePartition(w http.ResponseWriter, r *http.Request, j *partitionJob) bool {
	if !s.decodeBody(w, r, &j.req, false) {
		return false
	}
	g, H, sv, rerr := s.prepare(&j.req.Instance, j.req.solverParams)
	if rerr != nil {
		s.writeError(w, rerr.status, rerr.code, rerr.msg)
		return false
	}
	if j.req.TimeoutMS < 0 {
		s.writeError(w, http.StatusBadRequest, "bad_request", "negative solver parameter")
		return false
	}
	j.g, j.gSolve, j.H, j.sv = g, g, H, sv
	j.noDegrade = j.req.NoDegrade || s.cfg.DisableDegradation
	return true
}

// partitionKeys is the keys stage. Under -canon the submission is first
// mapped to its canonical vertex ordering, so both caches key on the
// label-invariant fingerprint and the solver runs in canonical space; a
// refusal (large automorphism class, exhausted tie-break budget) falls
// back to the label-sensitive keys — a missed cross-user hit, never a
// wrong one. The decomposition key is computed once and the result key
// derived from it (cache.DeriveResultKey), so the graph is hashed once
// per request. The result key covers everything that shapes the
// returned placement; Workers is excluded because results are
// bit-identical at every worker count.
func (s *Server) partitionKeys(j *partitionJob) {
	if s.cfg.Canon {
		s.reg.Counter("canon_attempts_total").Inc()
		if f, ok := canon.Canonicalize(j.g); ok {
			s.reg.Counter("canon_ok_total").Inc()
			j.cn, j.gSolve, j.perm = f, f.Graph, f.Perm
		} else {
			s.reg.Counter("canon_fallback_total").Inc()
		}
	}
	if s.dec == nil && s.results == nil {
		return
	}
	opts := j.sv.DecompOptions()
	if j.cn != nil {
		j.dkey = cache.DecompKeyCanon(j.cn.Fingerprint, opts)
	} else {
		j.dkey = cache.DecompKey(j.g, opts)
	}
	if s.results != nil {
		j.rkey = cache.DeriveResultKey(j.dkey, j.cn != nil, j.H, j.sv.Eps, j.sv.MaxStates)
	}
}

// resultSources is the result-cache stage, run before any admission
// cost is paid. The sources are tried in order — local memory, then, in
// cluster mode, the key's replicas — and each entry passes usableResult
// before it is used. The cache holds complete full-pipeline DP results,
// each with the ladder's floor verdict once one is known. A no_degrade
// request, or a ladder request whose DP result is known to win, is
// answered from the entry outright (true): no breaker probe, no queue
// slot, no decomposition, no DP. Any other entry stays in j.memo and
// becomes the ladder's memo: the request goes on through admission, its
// full tier is answered from the entry, and only the floor rung runs.
func (s *Server) resultSources(ctx context.Context, j *partitionJob) bool {
	if s.results == nil {
		return false
	}
	// The lookup counts as a hit or a miss in the cache's own accounting
	// whether or not the entry passes usableResult.
	if v, ok := s.results.Get(j.rkey); ok {
		j.memo = s.usableResult(j.rkey, v.(*resultEntry), j.gSolve, j.H, "result_hit")
	}
	if j.memo == nil {
		s.reg.Counter("result_cache_misses_total").Inc()
	}
	// A peer result that passes usableResult is inserted locally (repeat
	// requests here find it in the cache) and used exactly like a local
	// entry, so the body is bit-identical to one. Any failure — miss,
	// dead owner, corrupt frame, failed check — falls through to a local
	// solve. The fetch runs inside the singleflight group (keyed apart
	// from the solve coalescing) so a miss storm on one key costs the
	// owner one network round trip, not N concurrent fetches each paying
	// timeout × retries against a slow peer.
	if j.memo == nil && s.cluster != nil {
		v, shared, err := s.rflight.Do(ctx, j.rkey+"|peerfetch", func() (any, error) {
			v := s.cluster.fetch(ctx, resultKind, j.rkey)
			if v == nil {
				return nil, nil
			}
			e := s.usableResult(j.rkey, &resultEntry{res: v.(*hgp.Result)}, j.gSolve, j.H, "peer_fetch")
			if e != nil {
				s.results.Add(j.rkey, e)
			}
			return e, nil
		})
		if e, _ := v.(*resultEntry); err == nil && e != nil {
			j.memo, j.fetched, j.peer = e, true, !shared
		}
	}
	if j.memo == nil || !(j.noDegrade || j.memo.verdict == verdictDPWon) {
		return false
	}
	if !j.fetched {
		s.reg.Counter("result_cache_hits_total").Inc()
	}
	return true
}

// breakerGate is the breaker stage: the memory-pressure breaker picks
// the service mode before any solve capacity is spent — floor-only
// service while open, a single full-service probe when half-open. A
// no_degrade request meets an open breaker with 503 breaker_open
// (pass false). settle reports a probe's outcome once; the handler
// defers settle(false) so a probe shed before its solve (queue full,
// deadline expired while queued, client cancel, injected fault) still
// settles — a leaked half-open slot would keep the breaker from ever
// closing, floor-only service until restart.
func (s *Server) breakerGate(w http.ResponseWriter, noDegrade bool) (mode admitMode, settle func(ok bool), pass bool) {
	mode = s.brk.admit()
	s.publishBreakerGauges()
	settled := mode != modeProbe
	settle = func(ok bool) {
		if !settled {
			settled = true
			s.brk.probeDone(ok)
			s.publishBreakerGauges()
		}
	}
	if mode == modeFloor && noDegrade {
		_, _, retry := s.brk.snapshot()
		s.writeShed(w, http.StatusServiceUnavailable, "breaker_open", shedBreakerOpen,
			"memory pressure: full-service requests are shed while the breaker is open", retry)
		return mode, settle, false
	}
	return mode, settle, true
}

// solvePartition is the solve stage. With the result cache on and the
// breaker not flooring, identical concurrent misses coalesce, keyed per
// degradation mode (a no-degrade caller must never be handed a ladder
// outcome, and vice versa). Every waiter holds its own admission slot;
// only the DP work is shared.
func (s *Server) solvePartition(ctx context.Context, j *partitionJob, mode admitMode) (*solveOutcome, error) {
	if s.results == nil || mode == modeFloor {
		return s.runSolve(ctx, j, mode)
	}
	sfKey := j.rkey + "|ladder"
	if j.noDegrade {
		sfKey = j.rkey + "|nd"
	}
	v, shared, err := s.rflight.Do(ctx, sfKey, func() (any, error) { return s.runSolve(ctx, j, mode) })
	if err != nil {
		return nil, err
	}
	if shared {
		s.reg.Counter("result_coalesced_total").Inc()
	}
	return v.(*solveOutcome), nil
}

// runSolve runs the no_degrade path or the ladder, then the store stage:
// only complete full-pipeline DP results enter the result cache, won or
// lost — a partial one must not be replayed to callers who would have
// gotten the full answer, and a floor answer is cheap to recompute while
// the DP is not.
func (s *Server) runSolve(ctx context.Context, j *partitionJob, mode admitMode) (*solveOutcome, error) {
	var (
		oc      *solveOutcome
		full    *hgp.Result
		verdict resultVerdict
		err     error
	)
	if j.noDegrade {
		oc = &solveOutcome{}
		oc.res, oc.cacheHit, oc.decompDur, oc.solveDur, err = s.solve(ctx, j.gSolve, j.H, j.sv, j.dkey, j.perm)
		full = oc.res
	} else {
		oc, full, verdict, err = s.solveLadder(ctx, j, mode)
	}
	if err != nil {
		return nil, err
	}
	if s.results != nil && full != nil && !full.Partial {
		s.storeResult(j.rkey, j.memo, full, verdict)
	}
	return oc, nil
}

// solveLadder runs the anytime ladder: the full pipeline and the
// heuristic baseline under the request's deadline, the best feasible
// placement winning. With the breaker open only the floor rung runs:
// the baseline tier allocates no DP tables, so serving it degrades
// quality instead of deepening the memory pressure that tripped the
// breaker. The full tier is answered from the memo when there is one,
// and otherwise runs through s.solve so it shares the decomposition
// cache and singleflight group. Its cache outcome and phase timings are
// the response's when it wins; a baseline win has neither phase.
// anytime.Solve collects every rung before returning, so reading them
// after it needs no lock. full is the complete DP result the run
// produced or used, and verdict the floor verdict on it when the ladder
// settled one.
func (s *Server) solveLadder(ctx context.Context, j *partitionJob, mode admitMode) (oc *solveOutcome, full *hgp.Result, verdict resultVerdict, err error) {
	opts := anytime.Options{Solver: j.sv}
	if mode == modeFloor {
		floor := anytime.TierBaseline
		opts.Only = &floor
		s.reg.Counter("breaker_floor_served_total").Inc()
	}
	var dp solveOutcome
	opts.SolveDP = func(ctx context.Context, g *graph.Graph, H *hierarchy.Hierarchy, sv hgp.Solver) (*hgp.Result, error) {
		if j.memo != nil {
			dp.res, dp.tierHit = j.memo.res, true
			return j.memo.res, nil
		}
		var err error
		dp.res, dp.cacheHit, dp.decompDur, dp.solveDur, err = s.solve(ctx, g, H, sv, j.dkey, j.perm)
		return dp.res, err
	}
	out, err := anytime.Solve(ctx, j.gSolve, j.H, opts)
	if err != nil {
		return nil, nil, verdictNone, err
	}
	oc = &solveOutcome{res: out.Result}
	if dp.tierHit {
		out.Reports[anytime.TierFullDP].Cached = true
		oc.tierHit = true
		s.reg.Counter("result_cache_tier_hits_total").Inc()
	}
	if out.Tier == anytime.TierFullDP {
		oc.cacheHit, oc.decompDur, oc.solveDur = dp.cacheHit, dp.decompDur, dp.solveDur
		// A memoized full tier that wins replays the cached placement
		// verbatim.
		oc.resultHit = dp.tierHit
	}
	oc.degResp = &DegradationResponse{
		Tier:      out.Tier.String(),
		Degraded:  out.Degraded,
		Partial:   oc.res.Partial,
		TreesDone: oc.res.TreesDone,
		Tiers:     out.Reports[:],
	}
	if out.Degraded {
		s.reg.Counter(fmt.Sprintf("degraded_total{tier=%q}", out.Tier.String())).Inc()
	}
	if st := out.Reports[anytime.TierFullDP].State; st == anytime.StateWon || st == anytime.StateCompleted {
		full = dp.res
	}
	if out.Settled {
		verdict = verdictFloorWon
		if out.Tier == anytime.TierFullDP {
			verdict = verdictDPWon
		}
	}
	return oc, full, verdict, nil
}

// fitsRequest checks a cached or fetched result against the request
// before it is served: one leaf per vertex, each a leaf of H. The result
// caches and the peer PUT only decode a result's structure, so an entry
// stored under this key can still be the wrong shape for the instance —
// a short assignment would panic the canon translation or go out as a
// wrong-length answer. A mismatch is counted under
// certify_failures_total{source} and served as a miss.
func (s *Server) fitsRequest(res *hgp.Result, g *graph.Graph, H *hierarchy.Hierarchy, source string) bool {
	a, k := res.Assignment, H.Leaves()
	ok := len(a) == g.N()
	for i := 0; ok && i < len(a); i++ {
		ok = a[i] >= 0 && a[i] < k
	}
	if !ok {
		s.reg.Counter(telemetry.Series("certify_failures_total", "source", source)).Inc()
	}
	return ok
}

// solveOutcome bundles one completed solve so identical concurrent
// requests can share it through the singleflight group.
type solveOutcome struct {
	res *hgp.Result
	// cacheHit: the decomposition came from the LRU.
	cacheHit bool
	// resultHit: the placement is a result-cache entry, replayed
	// verbatim.
	resultHit bool
	// tierHit: the ladder's full tier was answered from the result
	// cache, so no DP ran for this answer.
	tierHit             bool
	decompDur, solveDur time.Duration
	degResp             *DegradationResponse
}

// writePartitionOK renders a successful solve. NaN per-tree costs
// (errored trees) and +Inf (pruned trees) both become null — neither is
// representable in JSON; TreesPruned carries the distinction. The solve
// latency histogram only sees answers that ran their DP or lost it to
// the floor: a result-cache hit or memoized tier did no DP and would
// drag the distribution toward zero.
//
// With a canonical form (cn non-nil) the result lives in canonical
// space — possibly shared with other requests through the caches — so
// the assignment is translated back through this request's own
// permutation into a FRESH slice before rendering; the cached result is
// never mutated. Cost, violations, and per-tree costs are
// label-invariant and pass through untouched.
func (s *Server) writePartitionOK(w http.ResponseWriter, start time.Time, oc *solveOutcome, peerFetch bool, cn *canon.Form) {
	res := oc.res
	perTree := make([]*float64, len(res.PerTreeCosts))
	for i, c := range res.PerTreeCosts {
		if !math.IsNaN(c) && !math.IsInf(c, 1) {
			c := c
			perTree[i] = &c
		}
	}
	assignment := res.Assignment
	canonHit := false
	if cn != nil {
		assignment = cn.TranslateAssignment(res.Assignment)
		// A peer fetch under -canon is a cache hit keyed by the
		// label-invariant fingerprint — the owner's entry may have been
		// written by a different user's isomorphic submission — so it
		// counts as a canon hit like any local one.
		if oc.cacheHit || oc.resultHit || peerFetch {
			canonHit = true
			s.reg.Counter("canon_hits_total").Inc()
		}
	}
	elapsed := time.Since(start)
	s.reg.Counter("partition_ok_total").Inc()
	s.reg.Counter("http_status_200_total").Inc()
	s.reg.Histogram("request_seconds").Observe(elapsed.Seconds())
	if !oc.resultHit && !oc.tierHit {
		s.reg.Histogram("solve_seconds").Observe(oc.solveDur.Seconds())
	}
	writeJSON(w, http.StatusOK, PartitionResponse{
		Assignment:     assignment,
		Cost:           res.Cost,
		TreeCost:       res.TreeCost,
		TreeIndex:      res.TreeIndex,
		PerTreeCosts:   perTree,
		TreesPruned:    res.TreesPruned,
		Violation:      res.Violation,
		States:         res.States,
		CacheHit:       oc.cacheHit,
		ResultCacheHit: oc.resultHit,
		PeerFetchHit:   peerFetch,
		CanonHit:       canonHit,
		ElapsedMS:      float64(elapsed.Microseconds()) / 1000,
		DecomposeMS:    float64(oc.decompDur.Microseconds()) / 1000,
		SolveMS:        float64(oc.solveDur.Microseconds()) / 1000,
		Degradation:    oc.degResp,
	})
}

// healthzResponse is the GET /v1/healthz body.
type healthzResponse struct {
	Status        string  `json:"status"` // "ok" or "draining"
	UptimeSeconds float64 `json:"uptime_seconds"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET required")
		return
	}
	st, code := "ok", http.StatusOK
	if s.isDraining() {
		st, code = "draining", http.StatusServiceUnavailable
	}
	writeJSON(w, code, healthzResponse{Status: st, UptimeSeconds: s.uptime()})
}

// StatsResponse is the GET /v1/stats JSON body.
type StatsResponse struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Queue         struct {
		Depth       int64 `json:"depth"`
		Concurrency int   `json:"concurrency"` // configured ceiling (MaxConcurrent)
		Capacity    int   `json:"capacity"`    // waiting room beyond Concurrency
		Ceiling     int   `json:"ceiling"`     // current (AIMD-adjusted) ceiling
		InUse       int   `json:"in_use"`      // solve slots held right now
		Waiting     int   `json:"waiting"`     // waiting-room occupancy
		Adaptive    bool  `json:"adaptive"`
	} `json:"queue"`
	Breaker   *breakerStats  `json:"breaker,omitempty"`   // omitted when the breaker is disabled
	Snapshots *snapshotStats `json:"snapshots,omitempty"` // omitted when the cache is memory-only
	Cache     *cacheStats    `json:"cache,omitempty"`     // omitted when caching is disabled
	// ResultCache is the full-result cache's accounting; omitted when
	// disabled. Hits here are DP runs never made: whole solves, or
	// ladder full tiers (TierHits) answered from the cache.
	ResultCache *resultCacheStats `json:"result_cache,omitempty"`
	// Portfolio is the tree-portfolio accounting: incumbent pruning and
	// tree-level concurrency across all solves. Always present.
	Portfolio portfolioBlock `json:"portfolio"`
	// Canon is the canonical-fingerprinting accounting. Always present;
	// Enabled mirrors the -canon flag and the counters stay zero while
	// it is off.
	Canon canonBlock `json:"canon"`
	// Cluster is the shard-group accounting: membership health, fetch
	// breakers, and fetch/push outcome totals. Always present; with
	// clustering off only {"enabled": false} is rendered, so dashboards
	// key on one shape everywhere.
	Cluster clusterStats `json:"cluster"`
	// Sessions is the graph-session (incremental repartitioning)
	// accounting: active sessions, patch/conflict totals, and the
	// incremental-vs-cold solve split. Always present; Enabled is false
	// when -max-sessions is negative.
	Sessions sessionsBlock      `json:"sessions"`
	Metrics  telemetry.Snapshot `json:"metrics"`
}

// canonBlock is the `canon` block of /v1/stats. Attempts split into ok
// (canonicalized; label-invariant keys used) and fallback (refused;
// label-sensitive keys used). HitsTotal counts responses answered from
// a canonically-keyed cache — the cross-user reuse the fingerprint
// exists to create.
type canonBlock struct {
	Enabled        bool  `json:"enabled"`
	AttemptsTotal  int64 `json:"attempts_total"`
	OKTotal        int64 `json:"ok_total"`
	FallbackTotal  int64 `json:"fallback_total"`
	CanonHitsTotal int64 `json:"hits_total"`
}

// portfolioBlock is the `portfolio` block of /v1/stats. The counters
// aggregate over real solves only (result-cache hits run no portfolio);
// ParallelTrees is the most recent solve's tree-level worker count.
type portfolioBlock struct {
	TreesPrunedTotal      int64 `json:"trees_pruned_total"`
	ParallelTrees         int64 `json:"parallel_trees"`
	ParallelSolvesTotal   int64 `json:"parallel_solves_total"`
	SequentialSolvesTotal int64 `json:"sequential_solves_total"`
	// SerialForced reports the -serial-portfolio escape hatch: when
	// true, every pruned portfolio runs trees one at a time.
	SerialForced bool `json:"serial_forced"`
}

// breakerStats is the `breaker` block of /v1/stats.
type breakerStats struct {
	State             string  `json:"state"` // "closed", "open", or "half_open"
	Trips             int64   `json:"trips"`
	RetryAfterSeconds float64 `json:"retry_after_seconds,omitempty"` // cooldown remaining when open
}

// snapshotStats is the `snapshots` block of /v1/stats: the on-disk
// durability of the decomposition cache.
type snapshotStats struct {
	Entries          int     `json:"entries"`
	Bytes            int64   `json:"bytes"`
	Pending          int     `json:"pending"` // staged, not yet flushed
	LastFlushAgeSecs float64 `json:"last_flush_age_seconds,omitempty"`
}

func breakerStateName(state int) string {
	switch state {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half_open"
	default:
		return "closed"
	}
}

type cacheStats struct {
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	Len       int     `json:"len"`
	Capacity  int     `json:"capacity"`
	HitRatio  float64 `json:"hit_ratio"`
}

// resultCacheStats is the `result_cache` block of /v1/stats: the LRU's
// accounting plus TierHits, the ladder full tiers answered from the
// cache (result_cache_tier_hits_total) — requests whose floor rung
// still ran.
type resultCacheStats struct {
	cacheStats
	TierHits int64 `json:"tier_hits"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET required")
		return
	}
	// Mirror cache accounting into gauges so both output formats (and
	// any scraper) see it.
	if s.dec != nil {
		cs := s.dec.Stats()
		s.reg.Gauge("decomp_cache_len").Set(int64(cs.Len))
		s.reg.Gauge("decomp_cache_evictions").Set(cs.Evictions)
	}
	ceiling, inUse, waiting := s.lim.snapshot()
	s.reg.Gauge("limiter_ceiling").Set(int64(ceiling))
	s.reg.Gauge("limiter_in_use").Set(int64(inUse))
	s.reg.Gauge("limiter_waiting").Set(int64(waiting))
	s.publishBreakerGauges()
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.reg.WritePrometheus(w)
		return
	}
	resp := StatsResponse{UptimeSeconds: s.uptime(), Metrics: s.reg.Snapshot()}
	resp.Queue.Depth = s.queued.Load()
	resp.Queue.Concurrency = s.cfg.MaxConcurrent
	resp.Queue.Capacity = s.cfg.MaxQueue
	resp.Queue.Ceiling, resp.Queue.InUse, resp.Queue.Waiting = s.lim.snapshot()
	resp.Queue.Adaptive = s.cfg.Adaptive
	if s.brk != nil {
		state, trips, retry := s.brk.snapshot()
		resp.Breaker = &breakerStats{
			State: breakerStateName(state), Trips: trips,
			RetryAfterSeconds: retry.Seconds(),
		}
	}
	if s.store != nil {
		ds := s.store.Stats()
		resp.Snapshots = &snapshotStats{
			Entries: ds.Entries, Bytes: ds.Bytes, Pending: ds.Pending,
		}
		if !ds.LastFlush.IsZero() {
			resp.Snapshots.LastFlushAgeSecs = time.Since(ds.LastFlush).Seconds()
		}
	}
	if s.dec != nil {
		cs := s.dec.Stats()
		resp.Cache = &cacheStats{
			Hits: cs.Hits, Misses: cs.Misses, Evictions: cs.Evictions,
			Len: cs.Len, Capacity: cs.Capacity, HitRatio: cs.HitRatio,
		}
	}
	if s.results != nil {
		rs := s.results.Stats()
		resp.ResultCache = &resultCacheStats{
			cacheStats: cacheStats{
				Hits: rs.Hits, Misses: rs.Misses, Evictions: rs.Evictions,
				Len: rs.Len, Capacity: rs.Capacity, HitRatio: rs.HitRatio,
			},
			TierHits: s.reg.Counter("result_cache_tier_hits_total").Value(),
		}
	}
	resp.Portfolio = portfolioBlock{
		TreesPrunedTotal:      s.reg.Counter("trees_pruned_total").Value(),
		ParallelTrees:         s.reg.Gauge("portfolio_parallel_trees").Value(),
		ParallelSolvesTotal:   s.reg.Counter("portfolio_parallel_solves_total").Value(),
		SequentialSolvesTotal: s.reg.Counter("portfolio_sequential_solves_total").Value(),
		SerialForced:          s.cfg.SerialPortfolio,
	}
	resp.Canon = canonBlock{
		Enabled:        s.cfg.Canon,
		AttemptsTotal:  s.reg.Counter("canon_attempts_total").Value(),
		OKTotal:        s.reg.Counter("canon_ok_total").Value(),
		FallbackTotal:  s.reg.Counter("canon_fallback_total").Value(),
		CanonHitsTotal: s.reg.Counter("canon_hits_total").Value(),
	}
	if s.cluster != nil {
		resp.Cluster = s.cluster.stats()
	}
	resp.Sessions = s.sessionsStats()
	writeJSON(w, http.StatusOK, resp)
}
