package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"time"

	"hierpart/internal/baseline"
	"hierpart/internal/canon"
	"hierpart/internal/graph"
	"hierpart/internal/hierarchy"
	"hierpart/internal/metrics"
)

// answer is the part of a /v1/partition or session-solve response the
// benchmark reads.
type answer struct {
	Assignment     []int     `json:"assignment"`
	Cost           float64   `json:"cost"`
	Violation      []float64 `json:"violation"`
	States         int       `json:"states"`
	ResultCacheHit bool      `json:"result_cache_hit"`
	Degradation    *struct {
		Tier    string `json:"tier"`
		Partial bool   `json:"partial"`
		Tiers   []struct {
			Name      string  `json:"name"`
			State     string  `json:"state"`
			ElapsedMS float64 `json:"elapsed_ms"`
		} `json:"tiers"`
	} `json:"degradation"`

	Incremental      bool    `json:"incremental"`
	Stored           bool    `json:"stored"`
	TablesReused     int     `json:"tables_reused"`
	DirtyTableFrac   float64 `json:"dirty_table_frac"`
	RepairReusedFrac float64 `json:"repair_reused_frac"`
}

// fullQuality reports whether a /v1/partition answer is the complete
// full pipeline's: a full_dp ladder win that is not partial, or a
// result-cache replay of one (only such results are cached).
func (a *answer) fullQuality() bool {
	if a.ResultCacheHit {
		return true
	}
	return a.Degradation != nil && a.Degradation.Tier == "full_dp" && !a.Degradation.Partial
}

// outcome is everything the daemon run measured, before it is named
// as metrics.
type outcome struct {
	attempted, ok int
	failures      []string // first few failures, for the log
	latencies     []time.Duration
	wall          time.Duration   // the timed loop, all blocks
	blockWall     []time.Duration // per block
	blockCPU      []time.Duration // hgpd CPU per block
	clientCPU     time.Duration
	rssMB         float64
	costNorm      float64
	answers       []*answer // nil where the op failed

	// Race and outcome counts.
	tierWins          map[string]int
	cappedPartialWins int // capped_dp won with a partial (cancelled) answer
	fullLostCompleted int // full_dp completed yet another tier won
	answerFlips       int // resubmissions answered at another cost than the tenant's set-up answer
	polishSkipped     int // DP answers (timed, and resubmit's set-up) the refined baseline beats
	loserMS           float64
	ladderOps         int
	incremental, cold int
	stored            int
	statsDelta        map[string]int64
	resultHits        int64
	resultMisses      int64
	decompHits        int64
	decompMisses      int64
}

// blockLatencies splits the latencies into the run's blocks.
func (oc *outcome) blockLatencies(w *workload) [][]time.Duration {
	out := make([][]time.Duration, blocks)
	for b := range out {
		out[b] = oc.latencies[b*w.blockLen : (b+1)*w.blockLen]
	}
	return out
}

// statsCounters are the /v1/stats counters whose deltas every run
// prints.
var statsCounters = []string{
	"partition_errors_total", "deadline_timeouts_total", "queue_rejections_total",
	"result_coalesced_total", "decomp_coalesced_total", "trees_pruned_total",
	"bound_fallbacks_total", "incremental_solves_total",
}

// analyze certifies every answer against the client's copy of its
// graph and folds the records into an outcome. setupAnswers are the
// set-up responses (each resubmit tenant's first answer).
func analyze(w *workload, recs []record, setupAnswers [][]byte, before, after *statsView) *outcome {
	H := newHierarchy()
	oc := &outcome{
		attempted: len(recs), tierWins: map[string]int{},
		answers: make([]*answer, len(recs)), statsDelta: map[string]int64{},
	}
	for _, c := range statsCounters {
		oc.statsDelta[c] = counterDelta(before, after, c)
	}
	oc.resultHits = after.ResultCache.Hits - before.ResultCache.Hits
	oc.resultMisses = after.ResultCache.Misses - before.ResultCache.Misses
	oc.decompHits = after.Cache.Hits - before.Cache.Hits
	oc.decompMisses = after.Cache.Misses - before.Cache.Misses

	firstCost := make([]float64, len(w.instances))
	for i := range firstCost {
		firstCost[i] = math.NaN()
	}
	for i, raw := range setupAnswers {
		var a answer
		if w.name == "resubmit" && json.Unmarshal(raw, &a) == nil {
			firstCost[w.setup[i].inst] = a.Cost
			if lostToPolish(w.instances[w.setup[i].inst].graph(), H, &a) {
				oc.polishSkipped++
			}
		}
	}
	// Session mirrors replay the deltas in op order (session_drift
	// runs on one connection, so op order is arrival order).
	var mirrors []*graph.Graph
	if w.name == "session_drift" {
		for _, in := range w.instances {
			mirrors = append(mirrors, in.graph())
		}
	}

	var normSum float64
	fail := func(i int, msg string) {
		if len(oc.failures) < 5 {
			oc.failures = append(oc.failures, fmt.Sprintf("op %d: %s", i, msg))
		}
	}
	for i, r := range recs {
		op := &w.ops[i]
		oc.latencies = append(oc.latencies, r.latency)
		var g *graph.Graph
		switch {
		case mirrors != nil:
			g = mirrors[op.inst]
			applyMirror(g, op.delta)
		case op.perm != nil:
			g = w.instances[op.inst].relabel(op.perm).graph()
		default:
			g = w.instances[op.inst].graph()
		}
		if r.err != nil {
			fail(i, r.err.Error())
			continue
		}
		if op.patchPath != "" && r.patchStatus != http.StatusOK {
			fail(i, fmt.Sprintf("PATCH status %d", r.patchStatus))
			continue
		}
		if r.status != http.StatusOK {
			fail(i, fmt.Sprintf("status %d: %.200s", r.status, r.body))
			continue
		}
		var a answer
		if err := json.Unmarshal(r.body, &a); err != nil {
			fail(i, "undecodable answer: "+err.Error())
			continue
		}
		if err := certify(g, H, a.Assignment, a.Cost, a.Violation); err != nil {
			fail(i, "certificate: "+err.Error())
			continue
		}
		oc.ok++
		oc.answers[i] = &a
		normSum += costNorm(g, H, a.Cost)

		if fc := firstCost[op.inst]; !math.IsNaN(fc) && !near(fc, a.Cost) {
			oc.answerFlips++
		}
		if lostToPolish(g, H, &a) {
			oc.polishSkipped++
		}
		if dg := a.Degradation; dg != nil {
			oc.ladderOps++
			oc.tierWins[dg.Tier]++
			if dg.Tier == "capped_dp" && dg.Partial {
				oc.cappedPartialWins++
			}
			for _, t := range dg.Tiers {
				if t.State != "won" && t.State != "skipped" {
					oc.loserMS += t.ElapsedMS
				}
				if t.Name == "full_dp" && t.State == "completed" {
					oc.fullLostCompleted++
				}
			}
		}
		if mirrors != nil {
			switch {
			case a.Stored:
				oc.stored++
			case a.Incremental:
				oc.incremental++
			default:
				oc.cold++
			}
		}
	}
	if oc.ok > 0 {
		oc.costNorm = normSum / float64(oc.ok)
	}
	return oc
}

// feasLimit is the ladder's feasibility line for the requests'
// default eps of 0.5: answers within 1+eps capacity violation outrank
// any answer beyond it.
const feasLimit = 1 + 0.5 + 1e-9

// lostToPolish reports race (a) on one ladder answer: a DP rung's
// answer that the baseline rung, had it run its RefineLocal polish,
// would have beaten inside the feasibility line. The ladder always
// completes the baseline rung but skips the polish once the full tier
// has finished, so such an answer means the polish was skipped. The
// check replays the rung as hgpd runs it: on the canonical graph, with
// the request's solver seed (1).
func lostToPolish(g *graph.Graph, H *hierarchy.Hierarchy, a *answer) bool {
	if a.Degradation == nil || a.Degradation.Tier == "baseline" {
		return false
	}
	if f, ok := canon.Canonicalize(g); ok {
		g = f.Graph
	}
	assign := baseline.DualRecursive(rand.New(rand.NewSource(1)), g, H)
	if g.N() <= 2048 {
		assign = baseline.RefineLocal(g, H, assign, 1.0, 1)
	}
	cost := metrics.CostLCA(g, H, assign)
	return metrics.MaxViolation(g, H, assign) <= feasLimit && cost < a.Cost && !near(cost, a.Cost)
}

// applyMirror applies one session delta to the client's mirror graph.
func applyMirror(g *graph.Graph, d *sessionDelta) {
	switch d.Op {
	case "add_edge":
		g.AddEdge(d.U, d.V, d.Weight)
	case "remove_edge":
		g.RemoveEdge(d.U, d.V)
	case "reweight_edge":
		g.SetEdgeWeight(d.U, d.V, d.Weight)
	}
}
