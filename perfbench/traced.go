package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"time"
)

// replayOps caps how many of a run's ops the in-process replay
// repeats: replayPairs times untraced and traced through the library
// calls, then once through the handler.
var replayOps = map[string]int{"cold_place": 120, "resubmit": 400, "session_drift": 200}

const replayPairs = 2

// runTraced runs the daemon workload untraced for its counts, then
// replays a prefix of the same sequence in-process for per-layer times.
func runTraced(bin string, w *workload, spansPath string) (*result, error) {
	sr, err := setUp(bin, w)
	if err != nil {
		return nil, err
	}
	run, err := measure(sr, w)
	sr.d.stop() // the replay gets the host to itself
	if err != nil {
		return nil, err
	}
	oc := run.oc
	k := min(replayOps[w.name], len(w.ops))

	// The library replay runs untraced and traced in turn, replayPairs
	// times each; the fastest pass of each kind gives the tracing
	// overhead, and the last traced pass supplies the spans.
	untraced, traced := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	var rec *recorder
	var p *pipeline
	for i := 0; i < replayPairs; i++ {
		u, _, err := replayLibrary(w, nil, k)
		if err != nil {
			return nil, err
		}
		rec = newRecorder()
		t, tp, err := replayLibrary(w, rec, k)
		if err != nil {
			return nil, err
		}
		untraced, traced, p = min(untraced, u), min(traced, t), tp
	}
	librarySpans := len(rec.spans)
	hAnswers, err := replayHandler(w, rec, k)
	if err != nil {
		return nil, err
	}
	if err := rec.write(spansPath); err != nil {
		return nil, err
	}

	mismatches := identityMismatches(w, run, p, hAnswers, k)
	fmt.Printf("replay: %d ops, untraced %.3f s, traced %.3f s, %d spans, identity mismatches %d\n",
		k, untraced.Seconds(), traced.Seconds(), len(rec.spans), mismatches)

	self := selfTimes(rec.spans)
	per := func(name string) float64 { return ms(self[name]) / float64(k) }
	// Per op: the handler's time beyond the library calls the replay
	// makes, and the daemon's latency beyond the in-process handler's.
	solve, patch, library := perReq(rec.spans, "server.handler"), perReq(rec.spans, "server.patch"), perReq(rec.spans, "request")
	var solveMS, patchMS float64
	var selfMS, loopMS []float64
	for i := 0; i < k; i++ {
		solveMS += ms(solve[i]) / float64(k)
		patchMS += ms(patch[i]) / float64(k)
		selfMS = append(selfMS, ms(solve[i]+patch[i]-library[i]))
		loopMS = append(loopMS, ms(run.recs[i].latency-solve[i]-patch[i]))
	}

	m := map[string]metric{
		"server.decode_ms":           {per("server.decode"), "ms"},
		"instio.materialize_ms":      {per("instio.materialize"), "ms"},
		"canon.canonicalize_ms":      {per("canon.canonicalize"), "ms"},
		"cache.key_ms":               {per("cache.key"), "ms"},
		"cache.lru_ms":               {per("cache.lru"), "ms"},
		"server.encode_ms":           {per("server.encode"), "ms"},
		"server.handler_ms":          {solveMS, "ms"},
		"server.patch_ms":            {patchMS, "ms"},
		"server.self_ms":             {medianFloat(selfMS), "ms"},
		"hgpd.loopback_ms":           {medianFloat(loopMS), "ms"},
		"treedecomp.build_ms":        {per("treedecomp.build"), "ms"},
		"treedecomp.apply_ms":        {per("treedecomp.apply"), "ms"},
		"treedecomp.repair_ms":       {per("treedecomp.repair"), "ms"},
		"hgp.solve_ms":               {per("hgp.solve"), "ms"},
		"anytime.ladder_ms":          {per("anytime.solve"), "ms"},
		"baseline.place_ms":          {per("baseline.place"), "ms"},
		"trace.overhead_pct":         {100 * (traced.Seconds() - untraced.Seconds()) / untraced.Seconds(), "%"},
		"trace.span_cost_pct":        {100 * spanCost().Seconds() * float64(librarySpans) / untraced.Seconds(), "%"},
		"client.cpu_ms_per_op":       {perOp(ms(oc.clientCPU), oc.attempted), "ms"},
		"replay.identity_mismatches": {float64(mismatches), "count"},
	}
	for name, v := range countMetrics(oc) {
		m[name] = v
	}
	failed := oc.attempted - oc.ok
	return &result{Correct: failed == 0 && mismatches == 0, Attempted: oc.attempted, Failed: failed, Metrics: m}, nil
}

// countMetrics names the daemon run's counts and ratios.
func countMetrics(oc *outcome) map[string]metric {
	frac := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	var states, solved, reused, sessions int
	var dirty, repairReused float64
	for _, a := range oc.answers {
		if a == nil || a.ResultCacheHit || a.Stored {
			continue
		}
		states += a.States
		solved++
		if a.Incremental {
			dirty += a.DirtyTableFrac
			repairReused += a.RepairReusedFrac
			reused += a.TablesReused
			sessions++
		}
	}
	ok := int64(oc.ok)
	ladder := int64(oc.ladderOps)
	return map[string]metric{
		"cache.result_hit_frac":         {frac(oc.resultHits, oc.resultHits+oc.resultMisses), "frac"},
		"cache.decomp_hit_frac":         {frac(oc.decompHits, oc.decompHits+oc.decompMisses), "frac"},
		"cache.result_misses":           {float64(oc.resultMisses), "count"},
		"anytime.answer_flips":          {float64(oc.answerFlips), "count"},
		"anytime.polish_skipped":        {float64(oc.polishSkipped), "count"},
		"anytime.capped_partial_wins":   {float64(oc.cappedPartialWins), "count"},
		"anytime.full_completed_lost":   {float64(oc.fullLostCompleted), "count"},
		"anytime.win_frac.full_dp":      {frac(int64(oc.tierWins["full_dp"]), ladder), "frac"},
		"anytime.win_frac.capped_dp":    {frac(int64(oc.tierWins["capped_dp"]), ladder), "frac"},
		"anytime.win_frac.baseline":     {frac(int64(oc.tierWins["baseline"]), ladder), "frac"},
		"anytime.loser_ms":              {perOp(oc.loserMS, oc.ladderOps), "ms"},
		"hgpt.states":                   {perOp(float64(states), solved), "states"},
		"hgp.trees_pruned":              {frac(oc.statsDelta["trees_pruned_total"], ok), "trees"},
		"hgp.bound_fallbacks":           {float64(oc.statsDelta["bound_fallbacks_total"]), "count"},
		"hgpt.dirty_table_frac":         {perOp(dirty, sessions), "frac"},
		"hgpt.tables_reused":            {perOp(float64(reused), sessions), "tables"},
		"treedecomp.repair_reused_frac": {perOp(repairReused, sessions), "frac"},
		"session.incremental_frac":      {frac(int64(oc.incremental), int64(oc.incremental+oc.cold)), "frac"},
		"server.partition_errors":       {float64(oc.statsDelta["partition_errors_total"]), "count"},
		"server.deadline_timeouts":      {float64(oc.statsDelta["deadline_timeouts_total"]), "count"},
		"server.queue_rejections":       {float64(oc.statsDelta["queue_rejections_total"]), "count"},
		"cache.result_coalesced":        {float64(oc.statsDelta["result_coalesced_total"]), "count"},
		"cache.decomp_coalesced":        {float64(oc.statsDelta["decomp_coalesced_total"]), "count"},
	}
}

// spanCost measures what recording one span costs.
func spanCost() time.Duration {
	const n = 100_000
	r := newRecorder()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		r.end(r.begin("probe", -1, i))
	}
	return time.Since(t0) / n
}

// perReq sums, per request, the durations of the root spans named
// name.
func perReq(spans []span, name string) map[int]time.Duration {
	out := map[int]time.Duration{}
	for _, s := range spans {
		if s.Name == name && s.Parent < 0 && s.End >= s.Start {
			out[s.Req] += time.Duration(s.End - s.Start)
		}
	}
	return out
}

// replayLibrary replays set-up (unrecorded) and the first k ops
// through the library calls, returning the wall time of the k ops.
func replayLibrary(w *workload, rec *recorder, k int) (time.Duration, *pipeline, error) {
	if w.name == "session_drift" {
		sr, err := newSessionReplay(w)
		if err != nil {
			return 0, nil, err
		}
		sr.rec = rec
		t0 := time.Now()
		for i := 0; i < k; i++ {
			if err := sr.op(i, &w.ops[i]); err != nil {
				return 0, nil, fmt.Errorf("session replay op %d: %w", i, err)
			}
		}
		return time.Since(t0), nil, nil
	}
	p := newPipeline()
	for _, s := range w.setup {
		if err := p.partition(-1, s.body); err != nil {
			return 0, nil, fmt.Errorf("replay set-up: %w", err)
		}
	}
	p.rec = rec
	t0 := time.Now()
	for i := 0; i < k; i++ {
		if err := p.partition(i, w.ops[i].body); err != nil {
			return 0, nil, fmt.Errorf("replay op %d: %w", i, err)
		}
	}
	return time.Since(t0), p, nil
}

// replayHandler sends set-up (unrecorded) and the first k ops through
// an in-process hgpd handler. It returns the session answers (nil
// entries elsewhere) for the identity check.
func replayHandler(w *workload, rec *recorder, k int) ([]*answer, error) {
	hr, err := newHandlerReplay()
	if err != nil {
		return nil, err
	}
	defer hr.close()
	answers := make([]*answer, k)
	if w.name != "session_drift" {
		for _, s := range w.setup {
			if code, body := hr.serve("setup", -1, http.MethodPost, s.path, s.body); code != http.StatusOK {
				return nil, fmt.Errorf("handler set-up: status %d: %s", code, body)
			}
		}
		hr.rec = rec
		for i := 0; i < k; i++ {
			if code, body := hr.serve("server.handler", i, http.MethodPost, w.ops[i].path, w.ops[i].body); code != http.StatusOK {
				return nil, fmt.Errorf("handler op %d: status %d: %s", i, code, body)
			}
		}
		return answers, nil
	}
	ids := make([]string, len(w.setup))
	for i, s := range w.setup {
		code, body := hr.serve("setup", -1, http.MethodPost, s.path, s.body)
		var view struct {
			ID string `json:"id"`
		}
		if code != http.StatusCreated || json.Unmarshal(body, &view) != nil {
			return nil, fmt.Errorf("handler session %d: status %d: %s", i, code, body)
		}
		ids[i] = view.ID
		if code, body := hr.serve("setup", -1, http.MethodPost, "/v1/graphs/"+view.ID+"/partition", sessionSolveBody); code != http.StatusOK {
			return nil, fmt.Errorf("handler session %d first solve: status %d: %s", i, code, body)
		}
	}
	hr.rec = rec
	for i := 0; i < k; i++ {
		op := &w.ops[i]
		path := "/v1/graphs/" + ids[op.inst]
		if code, body := hr.serve("server.patch", i, http.MethodPatch, path, op.patchBody); code != http.StatusOK {
			return nil, fmt.Errorf("handler op %d patch: status %d: %s", i, code, body)
		}
		code, body := hr.serve("server.handler", i, http.MethodPost, path+"/partition", op.body)
		var a answer
		if code != http.StatusOK || json.Unmarshal(body, &a) != nil {
			return nil, fmt.Errorf("handler op %d solve: status %d: %s", i, code, body)
		}
		answers[i] = &a
	}
	return answers, nil
}

// identityMismatches compares the daemon's answers with the replay's
// on the first k ops: a full-quality /v1/partition answer must equal
// the replay's complete full-tier answer bit for bit, and a session
// answer must equal the in-process handler's.
func identityMismatches(w *workload, run *daemonRun, p *pipeline, handler []*answer, k int) int {
	bad := 0
	for i := 0; i < k; i++ {
		a := run.oc.answers[i]
		if a == nil {
			continue
		}
		var wantA []int
		var wantC float64
		switch {
		case w.name == "session_drift":
			if handler[i] == nil {
				continue
			}
			wantA, wantC = handler[i].Assignment, handler[i].Cost
		case a.fullQuality():
			fa, ok := p.full[i]
			if !ok {
				continue
			}
			wantA, wantC = fa.assignment, fa.cost
		default:
			continue
		}
		if wantC != a.Cost || !equalInts(wantA, a.Assignment) {
			if bad < 5 {
				fmt.Printf("  IDENTITY op %d: daemon cost %v, replay cost %v\n", i, a.Cost, wantC)
			}
			bad++
		}
	}
	return bad
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
