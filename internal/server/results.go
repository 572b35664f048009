package server

import (
	"slices"

	"hierpart/internal/graph"
	"hierpart/internal/hgp"
	"hierpart/internal/hierarchy"
	"hierpart/internal/metrics"
	"hierpart/internal/telemetry"
)

// resultVerdict records how a cached DP result fared in the ladder's
// feasibility-first selection against the floor rung's polished answer.
type resultVerdict uint8

const (
	// verdictNone: no settled ladder run has compared the result with
	// the floor yet. It came from a no_degrade solve, from a peer (fetch,
	// PUT or anti-entropy repair), or from a ladder run whose floor the
	// deadline cut short.
	verdictNone resultVerdict = iota
	// verdictDPWon: the DP result won; a ladder request replays it.
	verdictDPWon
	// verdictFloorWon: the floor beat the DP result; a ladder request
	// re-runs only the floor and lets the selection pick again.
	verdictFloorWon
)

// resultEntry is one result-cache value: a complete full-pipeline DP
// result, whether or not it won its ladder, with its floor verdict.
// Entries are immutable; an update swaps in a new entry through
// cache.LRU.CompareAndSwap, so a reader never sees a half-made one.
type resultEntry struct {
	res     *hgp.Result
	verdict resultVerdict
	// checked is true once res.Cost and res.Violation are known to be
	// its assignment's: from the start for results solved here, after
	// usableResult's recomputation for results that came from a peer.
	checked bool
}

// usableResult checks an entry against the request before it is used:
// the assignment must fit the instance (fitsRequest), and an entry not
// yet checked has its cost and violations recomputed on the request's
// graph. With the floor verdict the stored Cost steers the ladder's
// selection, so a peer that sent a right-shaped result under a wrong
// cost must not get to choose the answer. A failed check is counted
// under certify_failures_total{source}, evicts the entry and reads as a
// miss; a passed one marks the entry checked, so each entry is
// recomputed once.
func (s *Server) usableResult(key string, e *resultEntry, g *graph.Graph, H *hierarchy.Hierarchy, source string) *resultEntry {
	if !s.fitsRequest(e.res, g, H, source) {
		return nil
	}
	if e.checked {
		return e
	}
	a := e.res.Assignment
	if metrics.CostLCA(g, H, a) != e.res.Cost || !slices.Equal(metrics.Violation(g, H, a), e.res.Violation) {
		s.reg.Counter(telemetry.Series("certify_failures_total", "source", source)).Inc()
		s.results.CompareAndSwap(key, e, nil)
		return nil
	}
	checked := &resultEntry{res: e.res, verdict: e.verdict, checked: true}
	s.results.CompareAndSwap(key, e, checked)
	return checked
}

// storeResult records the complete DP result a ladder or no_degrade
// solve produced or used. A new result enters the cache, solved here
// and so checked, and is replicated to the key's remote replicas; a
// memoized one (memo non-nil) that had no verdict gains the one this
// run settled.
func (s *Server) storeResult(key string, memo *resultEntry, res *hgp.Result, v resultVerdict) {
	if memo != nil {
		if memo.verdict == verdictNone && v != verdictNone {
			s.results.CompareAndSwap(key, memo, &resultEntry{res: memo.res, verdict: v, checked: true})
		}
		return
	}
	s.results.Add(key, &resultEntry{res: res, verdict: v, checked: true})
	s.reg.Counter("result_cache_inserts_total").Inc()
	if s.cluster != nil {
		// Replicate to the key's remote replicas (the fan-out skips
		// self) so the next submission of this request anywhere in the
		// cluster finds it where routing looks. The verdict stays here:
		// a receiver runs the floor once before trusting a replayed
		// answer to a ladder request.
		s.cluster.push(resultKind, key, res)
	}
}
