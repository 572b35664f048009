package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"hierpart/internal/graph"
	"hierpart/internal/hgp"
	"hierpart/internal/hierarchy"
	"hierpart/internal/instio"
)

// The request steps both solve endpoints share — POST /v1/partition and
// POST /v1/graphs/{id}/partition, with POST /v1/graphs and PATCH where a
// step applies: the drain check, the body decode, the solver-parameter
// check, the deadline clamp, admission and the solve-error mapping. Each
// exists once here; the handlers call them in their own order.

const (
	drainingMsg     = "daemon is draining; retry against another instance"
	peerDrainingMsg = "daemon is draining; peer traffic re-routes via health gossip"
)

// enter registers a request with the drain bookkeeping. A draining
// daemon answers 503 draining with msg and enter returns false;
// otherwise the caller owes s.inflight.Done.
func (s *Server) enter(w http.ResponseWriter, msg string) bool {
	if s.admitInflight() {
		return true
	}
	s.writeShed(w, http.StatusServiceUnavailable, "draining", shedDraining, msg, time.Second)
	return false
}

// decodeBody decodes a JSON request body into v, bounded by MaxBodyBytes
// and refusing unknown fields. An empty body is refused unless
// allowEmpty (the session partition body is optional). On failure the
// 400 is written and decodeBody returns false. It runs before any queue
// capacity is spent: malformed requests must not push well-formed ones
// into load shedding.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any, allowEmpty bool) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil && !(allowEmpty && errors.Is(err, io.EOF)) {
		s.writeError(w, http.StatusBadRequest, "bad_request", "invalid JSON: "+err.Error())
		return false
	}
	return true
}

// solverParams are the solver fields of a solve request body
// (/v1/partition and POST /v1/graphs). Zero values take the hgp.Solver
// defaults (Eps 0.5, Trees 4, FMPasses 4); MaxStates 0 takes the
// daemon's cap.
type solverParams struct {
	Eps        float64 `json:"eps,omitempty"`
	Trees      int     `json:"trees,omitempty"`
	Seed       int64   `json:"seed,omitempty"`
	FMPasses   int     `json:"fm_passes,omitempty"`
	FlowRefine bool    `json:"flow_refine,omitempty"`
	MaxStates  int     `json:"max_states,omitempty"`
}

// requestError is a request refused before any solve, with the status
// and code it is answered with.
type requestError struct {
	status    int
	code, msg string
}

func (e *requestError) Error() string { return e.msg }

// prepare checks an instance against the daemon's size limits (413
// before any materialization cost), then builds it. It serves
// /v1/partition and POST /v1/graphs.
func (s *Server) prepare(inst *instio.Instance, p solverParams) (*graph.Graph, *hierarchy.Hierarchy, hgp.Solver, *requestError) {
	if inst.N > s.cfg.MaxVertices {
		return refuse(http.StatusRequestEntityTooLarge, "too_large",
			fmt.Sprintf("graph has %d vertices, server limit is %d", inst.N, s.cfg.MaxVertices))
	}
	if len(inst.Edges) > s.cfg.MaxEdges {
		return refuse(http.StatusRequestEntityTooLarge, "too_large",
			fmt.Sprintf("graph has %d edges, server limit is %d", len(inst.Edges), s.cfg.MaxEdges))
	}
	return s.build(inst, p)
}

func refuse(status int, code, msg string) (*graph.Graph, *hierarchy.Hierarchy, hgp.Solver, *requestError) {
	return nil, nil, hgp.Solver{}, &requestError{status, code, msg}
}

// build materializes an instance, checks the solver parameters against
// their domains and builds the hgp.Solver with MaxStates clamped to the
// daemon's cap. The session restore calls it directly, so a restored
// session obeys the running daemon's -max-states, not the one it was
// saved under, but keeps a size PATCH grew it to past -max-vertices or
// -max-edges (the limits bound request bodies, not live sessions).
func (s *Server) build(inst *instio.Instance, p solverParams) (*graph.Graph, *hierarchy.Hierarchy, hgp.Solver, *requestError) {
	g, H, err := inst.Materialize()
	if err != nil {
		return refuse(http.StatusBadRequest, "bad_instance", err.Error())
	}
	if g.N() == 0 {
		return refuse(http.StatusBadRequest, "bad_instance", "graph has no vertices")
	}
	if p.Eps < 0 || p.Trees < 0 || p.FMPasses < 0 || p.MaxStates < 0 {
		return refuse(http.StatusBadRequest, "bad_request", "negative solver parameter")
	}
	maxStates := p.MaxStates
	if maxStates == 0 || maxStates > s.cfg.MaxStates {
		maxStates = s.cfg.MaxStates
	}
	return g, H, hgp.Solver{
		Eps: p.Eps, Trees: p.Trees, Seed: p.Seed,
		FMPasses: p.FMPasses, FlowRefine: p.FlowRefine,
		Workers: s.cfg.SolverWorkers, MaxStates: maxStates,
		SequentialPortfolio: s.cfg.SerialPortfolio,
	}, nil
}

// deadline derives a request's context from its timeout_ms: 0 takes
// DefaultTimeout, and nothing exceeds MaxTimeout. The context is also
// cancelled when the client disconnects, so a dead client stops
// burning the worker budget (it is threaded through
// treedecomp.BuildContext and the hgpt scheduler), and the limiter
// orders its waiting room by this deadline.
func (s *Server) deadline(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc, time.Duration) {
	timeout := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		timeout = time.Duration(timeoutMS) * time.Millisecond
	}
	timeout = min(timeout, s.cfg.MaxTimeout)
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	return ctx, cancel, timeout
}

// admit is the admission stage: the request joins the queue_depth gauge
// (requests past decode, waiting or running), then waits in the
// deadline-ordered waiting room for a solve slot. A request that gets no
// slot is answered with its shed response — 429 queue_full, 504 when
// its deadline expired in the waiting room, or the context's own
// verdict — and admit returns false. Otherwise the caller owes done,
// which releases the slot, feeds the hold time to the AIMD limiter and
// publishes limiter_ceiling.
func (s *Server) admit(w http.ResponseWriter, ctx context.Context, start time.Time, timeout time.Duration) (done func(), ok bool) {
	s.reg.Gauge("queue_depth").Set(s.queued.Add(1))
	leave := func() { s.reg.Gauge("queue_depth").Set(s.queued.Add(-1)) }
	if err := s.lim.acquire(ctx); err != nil {
		switch {
		case errors.Is(err, errQueueFull):
			s.reg.Counter("queue_rejections_total").Inc()
			_, inUse, waiting := s.lim.snapshot()
			s.writeShed(w, http.StatusTooManyRequests, "queue_full", shedQueueFull,
				fmt.Sprintf("admission queue full (%d running + %d waiting)", inUse, waiting), time.Second)
		case errors.Is(err, errShedExpired):
			s.reg.Counter("partition_errors_total").Inc()
			s.reg.Counter("deadline_timeouts_total").Inc()
			s.writeShed(w, http.StatusGatewayTimeout, "deadline_exceeded", shedDeadlineExpired,
				fmt.Sprintf("deadline expired in the waiting room after %s; no solve slot was occupied",
					time.Since(start).Round(time.Millisecond)), 0)
		default:
			s.finishTimeout(w, ctx, start, "while queued for a solve slot")
		}
		leave()
		return nil, false
	}
	slotStart := time.Now()
	return func() {
		held := time.Since(slotStart)
		s.lim.release()
		s.lim.observe(held, timeout, errors.Is(ctx.Err(), context.DeadlineExceeded))
		ceiling, _, _ := s.lim.snapshot()
		s.reg.Gauge("limiter_ceiling").Set(int64(ceiling))
		leave()
	}, true
}

// writeSolveError maps a failed solve to its response, the same on both
// solve endpoints: a context error is the deadline's or the client's
// (finishTimeout); an exhausted state budget is 422; a contained panic —
// the solver pools turn a panicking tree into an error, and one
// surfaces here only when every tree failed — is 500 solver_panic and
// ticks panics_total; anything else is 500 solve_failed.
func (s *Server) writeSolveError(w http.ResponseWriter, ctx context.Context, start time.Time, err error, where string) {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		s.finishTimeout(w, ctx, start, where)
		return
	}
	s.reg.Counter("partition_errors_total").Inc()
	switch {
	case strings.Contains(err.Error(), "state budget exceeded"):
		s.writeError(w, http.StatusUnprocessableEntity, "state_budget_exceeded", err.Error())
	case strings.Contains(err.Error(), "panic"):
		s.reg.Counter("panics_total").Inc()
		s.writeError(w, http.StatusInternalServerError, "solver_panic", err.Error())
	default:
		s.writeError(w, http.StatusInternalServerError, "solve_failed", err.Error())
	}
}

// finishTimeout classifies a context failure: a tripped per-request
// deadline is 504 (the daemon gave up inside its budget), a client that
// went away gets a best-effort 499-style close (the response will not
// be read anyway).
func (s *Server) finishTimeout(w http.ResponseWriter, ctx context.Context, start time.Time, where string) {
	s.reg.Counter("partition_errors_total").Inc()
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		s.reg.Counter("deadline_timeouts_total").Inc()
		s.writeError(w, http.StatusGatewayTimeout, "deadline_exceeded",
			fmt.Sprintf("deadline expired %s after %s", where, time.Since(start).Round(time.Millisecond)))
		return
	}
	// Client cancelled: nothing useful to send; record and close.
	s.reg.Counter("client_cancelled_total").Inc()
	s.writeError(w, 499, "client_closed_request", "client went away "+where)
}
