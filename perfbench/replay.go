package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"hierpart/internal/anytime"
	"hierpart/internal/baseline"
	"hierpart/internal/cache"
	"hierpart/internal/canon"
	"hierpart/internal/graph"
	"hierpart/internal/hgp"
	"hierpart/internal/hgpt"
	"hierpart/internal/hierarchy"
	"hierpart/internal/server"
	"hierpart/internal/telemetry"
	"hierpart/internal/treedecomp"
)

// The replay mirrors hgpd's defaults: cache sizes, the state budget,
// and a per-solve worker budget of GOMAXPROCS (Workers 0).
const (
	replayResultEntries = 256
	replayDecompEntries = 128
	replayMaxStates     = 50_000_000
)

// fullAnswer is a complete full-tier placement, in the request's own
// labels.
type fullAnswer struct {
	assignment []int
	cost       float64
}

// pipeline replays /v1/partition requests in-process through the
// public functions the daemon's handler calls, timing each call as a
// span. It keeps its own result and decomposition caches, as the
// daemon does.
type pipeline struct {
	rec     *recorder
	results *cache.LRU
	decomps *cache.LRU
	full    map[int]fullAnswer // op index → the full tier's complete answer
}

// newPipeline returns a pipeline with empty caches, not recording
// until its rec is set.
func newPipeline() *pipeline {
	return &pipeline{
		results: cache.New(replayResultEntries), decomps: cache.New(replayDecompEntries),
		full: map[int]fullAnswer{},
	}
}

// partition replays one request. req tags its spans; a negative req
// (set-up traffic) keeps no full-tier answer.
func (p *pipeline) partition(req int, body []byte) error {
	rec := p.rec
	root := rec.begin("request", -1, req)
	defer rec.end(root)

	s := rec.begin("server.decode", root, req)
	var pr server.PartitionRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&pr)
	rec.end(s)
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}

	s = rec.begin("instio.materialize", root, req)
	g, H, err := pr.Instance.Materialize()
	rec.end(s)
	if err != nil {
		return fmt.Errorf("materialize: %w", err)
	}
	sv := hgp.Solver{
		Eps: pr.Eps, Trees: pr.Trees, Seed: pr.Seed, FMPasses: pr.FMPasses,
		FlowRefine: pr.FlowRefine, MaxStates: replayMaxStates,
	}

	s = rec.begin("canon.canonicalize", root, req)
	cn, ok := canon.Canonicalize(g)
	rec.end(s)
	gSolve := g
	if ok {
		gSolve = cn.Graph
	} else {
		cn = nil
	}

	s = rec.begin("cache.key", root, req)
	var rkey string
	if cn != nil {
		rkey = cache.ResultKeyCanon(cn.Fingerprint, H, sv.DecompOptions(), sv.Eps, sv.MaxStates)
	} else {
		rkey = cache.ResultKey(g, H, sv.DecompOptions(), sv.Eps, sv.MaxStates)
	}
	rec.end(s)

	s = rec.begin("cache.lru", root, req)
	v, hit := p.results.Get(rkey)
	rec.end(s)

	var res, full *hgp.Result
	if hit {
		res = v.(*hgp.Result)
		full = res
	} else {
		ladder := rec.begin("anytime.solve", root, req)
		var mu sync.Mutex
		opts := anytime.Options{Solver: sv, SolveDP: func(ctx context.Context, g *graph.Graph, H *hierarchy.Hierarchy, sv hgp.Solver) (*hgp.Result, error) {
			r, err := p.solveDP(ctx, ladder, req, g, H, sv, cn)
			if tier, _ := anytime.TierFromContext(ctx); err == nil && tier == anytime.TierFullDP && !r.Partial {
				mu.Lock()
				full = r
				mu.Unlock()
			}
			return r, err
		}}
		out, err := anytime.Solve(context.Background(), gSolve, H, opts)
		rec.end(ladder)
		if err != nil {
			return fmt.Errorf("solve: %w", err)
		}
		res = out.Result
		if !out.Degraded && out.Tier == anytime.TierFullDP && !res.Partial {
			p.results.Add(rkey, res)
		}

		// The ladder's floor rung, timed on its own: anytime runs it
		// inside Solve where it cannot be wrapped. It is a root span, so
		// it adds to no request's time.
		b := rec.begin("baseline.place", -1, req)
		assign := baseline.DualRecursive(rand.New(rand.NewSource(sv.Seed)), gSolve, H)
		if gSolve.N() <= 2048 {
			baseline.RefineLocal(gSolve, H, assign, 1.0, 1)
		}
		rec.end(b)
	}

	s = rec.begin("server.encode", root, req)
	assignment := []int(res.Assignment)
	if cn != nil {
		assignment = cn.TranslateAssignment(res.Assignment)
	}
	_, err = json.Marshal(server.PartitionResponse{
		Assignment: assignment, Cost: res.Cost, TreeCost: res.TreeCost, TreeIndex: res.TreeIndex,
		Violation: res.Violation, States: res.States, ResultCacheHit: hit,
	})
	rec.end(s)
	if err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	// anytime.Solve has collected every tier before returning, so full
	// is no longer written concurrently.
	if full != nil && req >= 0 {
		a := []int(full.Assignment)
		if cn != nil {
			a = cn.TranslateAssignment(full.Assignment)
		}
		p.full[req] = fullAnswer{assignment: a, cost: full.Cost}
	}
	return nil
}

// solveDP is the ladder's DP rung as the daemon runs it: a
// decomposition-cache lookup, a build on a miss, then the per-tree DP.
func (p *pipeline) solveDP(ctx context.Context, parent, req int, g *graph.Graph, H *hierarchy.Hierarchy, sv hgp.Solver, cn *canon.Form) (*hgp.Result, error) {
	rec := p.rec
	s := rec.begin("cache.key", parent, req)
	var key string
	if cn != nil {
		key = cache.DecompKeyCanon(cn.Fingerprint, sv.DecompOptions())
	} else {
		key = cache.DecompKey(g, sv.DecompOptions())
	}
	rec.end(s)
	s = rec.begin("cache.lru", parent, req)
	v, ok := p.decomps.Get(key)
	rec.end(s)
	var dec *treedecomp.Decomposition
	if ok {
		dec = v.(*treedecomp.Decomposition)
	} else {
		s = rec.begin("treedecomp.build", parent, req)
		built, err := treedecomp.BuildContext(ctx, g, sv.DecompOptions())
		rec.end(s)
		if err != nil {
			return nil, err
		}
		p.decomps.Add(key, built)
		dec = built
	}
	s = rec.begin("hgp.solve", parent, req)
	res, err := sv.SolveDecomposition(ctx, g, H, dec)
	rec.end(s)
	return res, err
}

// sessionReplay replays session_drift in-process: each op applies its
// delta to the session graph, repairs the decomposition and re-solves
// with the session's warm DP tables, as the daemon's session path does.
type sessionReplay struct {
	rec  *recorder
	H    *hierarchy.Hierarchy
	sess []*replaySession
}

type replaySession struct {
	g       *graph.Graph
	sv      hgp.Solver
	dec     *treedecomp.Decomposition
	lastDP  []float64
	version int64
}

// newSessionReplay registers and cold-solves every session, not
// recording until its rec is set.
func newSessionReplay(w *workload) (*sessionReplay, error) {
	sr := &sessionReplay{H: newHierarchy()}
	for _, in := range w.instances {
		rs := &replaySession{g: in.graph(), sv: hgp.Solver{Seed: 1, MaxStates: replayMaxStates}, version: 1}
		dec, err := treedecomp.BuildContext(context.Background(), rs.g, rs.sv.DecompOptions())
		if err != nil {
			return nil, err
		}
		rs.sv.TreeCaches = make([]*hgpt.TableCache, len(dec.Trees))
		for i := range rs.sv.TreeCaches {
			rs.sv.TreeCaches[i] = hgpt.NewTableCache()
		}
		res, err := rs.sv.SolveDecomposition(context.Background(), rs.g, sr.H, dec)
		if err != nil {
			return nil, err
		}
		rs.dec, rs.lastDP = dec, res.PerTreeDPCosts
		sr.sess = append(sr.sess, rs)
	}
	return sr, nil
}

var deltaOps = map[string]treedecomp.DeltaOp{
	"add_edge": treedecomp.DeltaAddEdge, "remove_edge": treedecomp.DeltaRemoveEdge,
	"reweight_edge": treedecomp.DeltaReweightEdge,
}

// op replays one PATCH + solve.
func (sr *sessionReplay) op(req int, o *request) error {
	rec := sr.rec
	rs := sr.sess[o.inst]
	root := rec.begin("request", -1, req)
	defer rec.end(root)

	s := rec.begin("server.decode", root, req)
	var patch server.GraphPatchRequest
	dec := json.NewDecoder(bytes.NewReader(o.patchBody))
	dec.DisallowUnknownFields()
	err := dec.Decode(&patch)
	rec.end(s)
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	var deltas []treedecomp.Delta
	for _, d := range patch.Deltas {
		deltas = append(deltas, treedecomp.Delta{Op: deltaOps[d.Op], U: d.U, V: d.V, Weight: d.Weight})
	}

	s = rec.begin("treedecomp.apply", root, req)
	scratch := rs.g.Clone()
	err = treedecomp.Apply(scratch, deltas)
	rec.end(s)
	if err != nil {
		return fmt.Errorf("apply: %w", err)
	}
	rs.g = scratch
	rs.version++

	s = rec.begin("treedecomp.repair", root, req)
	rep, st, err := treedecomp.Repair(context.Background(), rs.g, rs.dec, deltas, rs.sv.DecompOptions(), rs.version)
	rec.end(s)
	if err != nil {
		return fmt.Errorf("repair: %w", err)
	}
	sv := rs.sv
	sv.WarmBounds = hgp.WarmBoundsAfterRepair(rs.lastDP, sr.H, st)

	s = rec.begin("hgp.solve", root, req)
	res, err := sv.SolveDecomposition(context.Background(), rs.g, sr.H, rep)
	rec.end(s)
	if err != nil {
		return fmt.Errorf("solve: %w", err)
	}
	rs.dec, rs.lastDP = rep, res.PerTreeDPCosts

	s = rec.begin("server.encode", root, req)
	_, err = json.Marshal(server.GraphPartitionResponse{
		Version: rs.version, Assignment: res.Assignment, Cost: res.Cost, Violation: res.Violation,
		States: res.States, Incremental: true, TablesReused: res.TablesReused,
		TablesComputed: res.TablesComputed, RepairReusedFrac: st.ReusedFrac(),
	})
	rec.end(s)
	return err
}

// handlerReplay sends requests through an in-process hgpd handler
// (server.New with -canon and a fresh registry), timing each
// ServeHTTP call as one root span.
type handlerReplay struct {
	rec *recorder
	srv *server.Server
	h   http.Handler
}

// newHandlerReplay starts an in-process server, not recording until
// its rec is set.
func newHandlerReplay() (*handlerReplay, error) {
	srv, err := server.New(server.Config{Canon: true, Registry: telemetry.NewRegistry()})
	if err != nil {
		return nil, err
	}
	return &handlerReplay{srv: srv, h: srv.Handler()}, nil
}

func (hr *handlerReplay) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = hr.srv.Shutdown(ctx)
}

// serve runs one request through the handler under span name.
func (hr *handlerReplay) serve(name string, req int, method, path string, body []byte) (int, []byte) {
	rw := httptest.NewRecorder()
	r := httptest.NewRequest(method, path, bytes.NewReader(body))
	r.Header.Set("Content-Type", "application/json")
	s := hr.rec.begin(name, -1, req)
	hr.h.ServeHTTP(rw, r)
	hr.rec.end(s)
	return rw.Code, rw.Body.Bytes()
}
