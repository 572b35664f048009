package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"hierpart/internal/graph"
	"hierpart/internal/hierarchy"
	"hierpart/internal/stream"
)

// Every request targets the same machine: 2 sockets × 4 cores, with
// cost multipliers 8 (across sockets), 2 (across cores) and 0.
var (
	hierDeg = []int{2, 4}
	hierCM  = []float64{8, 2, 0}
)

func newHierarchy() *hierarchy.Hierarchy { return hierarchy.MustNew(hierDeg, hierCM) }

// requestTimeoutMS is every request's deadline: far above the slowest
// request, so the work and never the clock sets latency.
const requestTimeoutMS = 120_000

// shape is one streaming-topology family with its size parameters
// (see internal/stream for what a and b mean per family).
type shape struct {
	family string
	a, b   int
}

// build draws one instance of the shape: operator demands and channel
// rates come from rng. Demands are uniform in [0.1, 0.4], scaled down
// above 24 operators so that every instance fits the 8 unit-capacity
// cores.
func (s shape) build(rng *rand.Rand) *graph.Graph {
	rate := 40 + 40*rng.Float64()
	var t *stream.Topology
	switch s.family {
	case "pipeline":
		t = stream.Pipeline(rng, s.a, s.b, 0.1, 0.4, rate)
	case "diamond":
		t = stream.Diamond(rng, s.a, 0.1, 0.4, rate)
	case "fanin":
		t = stream.FanInAggregation(rng, s.a, s.b, 0.1, 0.4, rate)
	case "wordcount":
		t = stream.WordCount(rng, s.a, s.b, 0.1, 0.4, rate)
	case "join":
		t = stream.JoinTree(rng, s.a, 0.1, 0.4, rate)
	default:
		panic("perfbench: unknown family " + s.family)
	}
	if n := float64(t.N()); n > 24 {
		for v := range t.Demand {
			t.Demand[v] *= 24 / n
		}
	}
	return t.CommGraph()
}

// fixtureSeed draws the resubmit tenants and the session_drift
// sessions. They are a fixed population, as a deployment's tenants
// are; --seed drives the traffic: cold topologies, popularity order,
// relabellings and deltas.
const fixtureSeed = 1000

// fixture builds shape i of a fixed population.
func fixture(s shape, i int) *graph.Graph {
	return s.build(rand.New(rand.NewSource(fixtureSeed + int64(i))))
}

// coldShapes is cold_place's mix: every family at 7–21 vertices, each
// costing the full pipeline some 10–40 ms of CPU. Each block cycles
// through the whole list, so every seed sends the same mix of shapes.
var coldShapes = []shape{
	{"pipeline", 4, 3}, {"pipeline", 3, 4}, {"pipeline", 5, 2},
	{"diamond", 3, 0}, {"diamond", 4, 0}, {"diamond", 5, 0},
	{"fanin", 4, 2}, {"fanin", 5, 3}, {"fanin", 6, 2},
	{"wordcount", 4, 4}, {"wordcount", 5, 3}, {"wordcount", 6, 5},
	{"join", 8, 0}, {"join", 4, 0},
}

// resubmitShapes are resubmit's tenants, from 9 to 127 vertices and
// up to 130 edges. Tenant r has popularity rank r: the list takes
// the families in turn, each round at a larger size, so popularity
// falls with size.
var resubmitShapes = []shape{
	{"pipeline", 4, 3}, {"diamond", 4, 0}, {"fanin", 5, 2}, {"wordcount", 5, 4}, {"join", 8, 0},
	{"pipeline", 3, 3}, {"diamond", 6, 0}, {"fanin", 8, 2}, {"wordcount", 6, 6}, {"join", 16, 0},
	{"pipeline", 5, 4}, {"diamond", 10, 0}, {"fanin", 10, 3}, {"wordcount", 8, 6}, {"join", 32, 0},
	{"pipeline", 6, 4}, {"diamond", 16, 0}, {"fanin", 16, 4}, {"wordcount", 10, 8}, {"join", 64, 0},
	{"pipeline", 6, 5}, {"diamond", 24, 0}, {"fanin", 24, 3}, {"wordcount", 12, 10},
}

// sessionShapes are session_drift's registered graphs: the first
// three rounds of resubmit's shapes (9 to 63 vertices), one session
// each, well within hgpd's default -max-sessions of 64.
var sessionShapes = resubmitShapes[:15]

// instance is one graph in array form, ready to relabel and marshal.
type instance struct {
	n       int
	demands []float64
	edges   [][3]float64
}

func toInstance(g *graph.Graph) instance {
	in := instance{n: g.N(), demands: make([]float64, g.N())}
	for v := range in.demands {
		in.demands[v] = g.Demand(v)
	}
	for _, e := range g.Edges() {
		in.edges = append(in.edges, [3]float64{float64(e.U), float64(e.V), e.Weight})
	}
	return in
}

// relabel returns the instance with vertex v renamed perm[v]. The
// edge list keeps its order; only the names change.
func (in instance) relabel(perm []int) instance {
	out := instance{n: in.n, demands: make([]float64, in.n), edges: make([][3]float64, len(in.edges))}
	for v, d := range in.demands {
		out.demands[perm[v]] = d
	}
	for i, e := range in.edges {
		out.edges[i] = [3]float64{float64(perm[int(e[0])]), float64(perm[int(e[1])]), e[2]}
	}
	return out
}

// graph rebuilds the client's copy of the instance's graph.
func (in instance) graph() *graph.Graph {
	g := graph.New(in.n)
	for v, d := range in.demands {
		g.SetDemand(v, d)
	}
	for _, e := range in.edges {
		g.AddEdge(int(e[0]), int(e[1]), e[2])
	}
	return g
}

type hierarchyJSON struct {
	Deg []int     `json:"deg"`
	CM  []float64 `json:"cm"`
}

// body marshals the instance as a POST /v1/partition body carrying
// timeoutMS, or, with timeoutMS 0, as a POST /v1/graphs registration
// body (which takes no deadline). The solver seed is fixed so
// isomorphic submissions share the solver's identity; every other
// solver field keeps its server default.
func (in instance) body(timeoutMS int) []byte {
	buf, err := json.Marshal(struct {
		Hierarchy hierarchyJSON `json:"hierarchy"`
		N         int           `json:"n"`
		Demands   []float64     `json:"demands"`
		Edges     [][3]float64  `json:"edges"`
		Seed      int64         `json:"seed"`
		TimeoutMS int           `json:"timeout_ms,omitempty"`
	}{hierarchyJSON{hierDeg, hierCM}, in.n, in.demands, in.edges, 1, timeoutMS})
	if err != nil {
		panic(err)
	}
	return buf
}

// request is one timed operation of a workload, fully marshalled in
// set-up. A session op sends patchBody to patchPath first and times
// the PATCH and the solve together.
type request struct {
	path      string
	body      []byte
	patchPath string // empty for one-shot requests
	patchBody []byte

	inst  int   // index into the workload's instances (tenant, session or cold graph)
	perm  []int // relabelling applied to the instance; nil = original labels
	delta *sessionDelta
}

// sessionSolveBody is every session solve's body.
var sessionSolveBody = []byte(fmt.Sprintf(`{"timeout_ms":%d}`, requestTimeoutMS))

// sessionDelta is one session_drift edit, in the session's labels.
type sessionDelta struct {
	Op     string  `json:"op"`
	U      int     `json:"u"`
	V      int     `json:"v"`
	Weight float64 `json:"weight,omitempty"`
}

// workload is a fully generated, seeded request sequence plus its
// set-up submissions.
type workload struct {
	name      string
	conns     int
	instances []instance
	setup     []request // answered before timing starts (prewarm, first session solves)
	ops       []request // blocks consecutive blocks of blockLen ops
	blockLen  int
}

// blocks is how many equal blocks a run's ops form. Each block holds
// the workload's whole mix; rates and per-op medians are taken per
// block and reported as the median over blocks, so a burst of host
// noise moves one block, not the result.
const blocks = 10

// Nominal operation rates on a 2-core host: a run's op count is its
// rate × --seconds (rounded down to whole blocks), so the work, not a
// clock, ends the timed loop and every run of one seed sends the same
// requests.
const (
	coldRate     = 70
	resubmitRate = 110
	sessionRate  = 70
)

// exactFrac is resubmit's share of identical-bytes resubmissions; the
// rest are fresh relabellings.
const exactFrac = 0.10

// zipfS is resubmit's popularity skew over tenants.
const zipfS = 1.2

func generate(name string, seed int64, seconds int) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	var w *workload
	switch name {
	case "cold_place":
		w = genCold(rng, max(1, coldRate*seconds/blocks))
	case "resubmit":
		w = genResubmit(rng, max(1, resubmitRate*seconds/blocks))
	case "session_drift":
		w = genSession(rng, max(1, sessionRate*seconds/blocks))
	default:
		return nil, fmt.Errorf("unknown workload %q (want cold_place, resubmit or session_drift)", name)
	}
	w.blockLen = len(w.ops) / blocks
	return w, nil
}

// coldWarmups is how many topologies cold_place's set-up solves.
const coldWarmups = 32

// genCold makes blocks × per distinct topologies, each request a fresh
// draw the daemon has never seen: each block cycles through the shape
// list in seeded orders. Set-up solves coldWarmups more of them, drawn
// first.
func genCold(rng *rand.Rand, per int) *workload {
	w := &workload{name: "cold_place", conns: 2}
	for i := 0; i < coldWarmups; i++ {
		in := toInstance(coldShapes[i%len(coldShapes)].build(rng))
		w.instances = append(w.instances, in)
		w.setup = append(w.setup, request{path: "/v1/partition", body: in.body(requestTimeoutMS), inst: len(w.instances) - 1})
	}
	var order []int
	for b := 0; b < blocks; b++ {
		var block []int
		for len(block) < per {
			block = append(block, rng.Perm(len(coldShapes))...)
		}
		order = append(order, block[:per]...)
	}
	for _, si := range order {
		in := toInstance(coldShapes[si].build(rng))
		w.instances = append(w.instances, in)
		w.ops = append(w.ops, request{path: "/v1/partition", body: in.body(requestTimeoutMS), inst: len(w.instances) - 1})
	}
	return w
}

// genResubmit answers every tenant once in set-up, then sends blocks ×
// per resubmissions: exactFrac with the set-up bytes, the rest under
// fresh relabellings. In each block tenant r gets its zipf share of the
// per requests, rounded (zipfCounts), in a seeded order, so every block
// and every seed sends the same mix of tenants.
func genResubmit(rng *rand.Rand, per int) *workload {
	w := &workload{name: "resubmit", conns: 1}
	for i, s := range resubmitShapes {
		in := toInstance(fixture(s, i))
		w.instances = append(w.instances, in)
		w.setup = append(w.setup, request{path: "/v1/partition", body: in.body(requestTimeoutMS), inst: i})
	}
	var order []int
	for b := 0; b < blocks; b++ {
		var block []int
		for t, c := range zipfCounts(len(w.instances), per) {
			for j := 0; j < c; j++ {
				block = append(block, t)
			}
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		order = append(order, block...)
	}
	for _, t := range order {
		in := w.instances[t]
		if rng.Float64() < exactFrac {
			w.ops = append(w.ops, request{path: "/v1/partition", body: w.setup[t].body, inst: t})
			continue
		}
		perm := rng.Perm(in.n)
		w.ops = append(w.ops, request{path: "/v1/partition", body: in.relabel(perm).body(requestTimeoutMS), inst: t, perm: perm})
	}
	return w
}

// zipfCounts splits n requests over k ranks in proportion to
// (1+r)^−zipfS, rounding so the counts sum to n.
func zipfCounts(k, n int) []int {
	weights := make([]float64, k)
	var sum float64
	for r := range weights {
		weights[r] = math.Pow(float64(r+1), -zipfS)
		sum += weights[r]
	}
	counts := make([]int, k)
	acc, given := 0.0, 0
	for r, wt := range weights {
		acc += wt / sum * float64(n)
		counts[r] = int(math.Round(acc)) - given
		given += counts[r]
	}
	return counts
}

// deltaCycle is the delta kind each session's k-th op makes (at
// offset session index, so sessions do not add edges in lockstep): one
// add and one remove per ten ops, the rest reweights.
var deltaCycle = []string{
	"reweight_edge", "reweight_edge", "reweight_edge", "reweight_edge", "add_edge",
	"reweight_edge", "reweight_edge", "reweight_edge", "reweight_edge", "remove_edge",
}

// genSession registers one session per session shape (a fixed
// population, like resubmit's tenants), solves each once in set-up,
// then makes about blocks × per ops of one PATCHed delta and a
// re-solve each. Ops go to the sessions in rounds, each round in a
// seeded order, so every session gets the same share; each session's kinds follow
// deltaCycle. Deltas are drawn against a client-side mirror, so every
// one is valid when it arrives: a reweight sets an existing edge to
// 0.5–1.5× its original weight (weights do not drift), an add joins a
// non-adjacent pair, a remove takes back an edge an earlier add
// created (keeping the base topology connected; with none to take
// back it reweights instead). The PATCH bodies carry the session
// version the op will find, so the sequence is marshalled in full
// before timing.
func genSession(rng *rand.Rand, per int) *workload {
	w := &workload{name: "session_drift", conns: 1}
	type mirror struct {
		g       *graph.Graph
		base    map[[2]int]float64 // each edge's original weight
		added   [][2]int
		version int64
		ops     int
	}
	var ms []*mirror
	for i, s := range sessionShapes {
		g := fixture(s, i)
		w.instances = append(w.instances, toInstance(g))
		m := &mirror{g: g, base: map[[2]int]float64{}, version: 1}
		for _, e := range g.Edges() {
			m.base[[2]int{e.U, e.V}] = e.Weight
		}
		ms = append(ms, m)
		w.setup = append(w.setup, request{path: "/v1/graphs", body: w.instances[i].body(0), inst: i})
	}
	// Whole rounds per block, so each block gives every session the
	// same number of ops.
	rounds := blocks * max(1, per/len(ms))
	var order []int
	for r := 0; r < rounds; r++ {
		order = append(order, rng.Perm(len(ms))...)
	}
	for _, si := range order {
		m := ms[si]
		kind := deltaCycle[(m.ops+si)%len(deltaCycle)]
		m.ops++
		var d sessionDelta
		switch {
		case kind == "add_edge":
			u, v := rng.Intn(m.g.N()), rng.Intn(m.g.N())
			for u == v || m.g.HasEdge(u, v) {
				u, v = rng.Intn(m.g.N()), rng.Intn(m.g.N())
			}
			u, v = min(u, v), max(u, v)
			wt := 5 + 45*rng.Float64()
			m.g.AddEdge(u, v, wt)
			m.base[[2]int{u, v}] = wt
			m.added = append(m.added, [2]int{u, v})
			d = sessionDelta{Op: "add_edge", U: u, V: v, Weight: wt}
		case kind == "remove_edge" && len(m.added) > 0:
			j := rng.Intn(len(m.added))
			e := m.added[j]
			m.added = append(m.added[:j], m.added[j+1:]...)
			m.g.RemoveEdge(e[0], e[1])
			delete(m.base, e)
			d = sessionDelta{Op: "remove_edge", U: e[0], V: e[1]}
		default:
			es := m.g.Edges()
			e := es[rng.Intn(len(es))]
			wt := m.base[[2]int{e.U, e.V}] * (0.5 + rng.Float64())
			m.g.SetEdgeWeight(e.U, e.V, wt)
			d = sessionDelta{Op: "reweight_edge", U: e.U, V: e.V, Weight: wt}
		}
		patch, err := json.Marshal(struct {
			Version int64          `json:"version"`
			Deltas  []sessionDelta `json:"deltas"`
		}{m.version, []sessionDelta{d}})
		if err != nil {
			panic(err)
		}
		m.version++
		w.ops = append(w.ops, request{patchBody: patch, delta: &d, inst: si, body: sessionSolveBody})
	}
	return w
}
