package main

import (
	"bytes"
	"math"
	"testing"
	"time"

	"hierpart/internal/graph"
	"hierpart/internal/hierarchy"
	"hierpart/internal/metrics"
	"hierpart/internal/treedecomp"
)

func msSamples(vals ...int) []time.Duration {
	out := make([]time.Duration, len(vals))
	for i, v := range vals {
		out[i] = time.Duration(v) * time.Millisecond
	}
	return out
}

func rangeSamples(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(n-i) * time.Millisecond // descending: tail must sort
	}
	return out
}

func TestTailRule(t *testing.T) {
	cases := []struct {
		n      int
		pct    float64
		beyond int
		ok     bool
	}{
		{10000, 99.9, 10, true},
		{1000, 99, 10, true},
		{999, 95, 49, true}, // p99 would leave 9
		{100, 90, 10, true},
		{20, 50, 10, true},
		{19, 0, 0, false}, // small sample: nothing qualifies
		{1, 0, 0, false},
		{0, 0, 0, false},
	}
	for _, c := range cases {
		p, b, ok := tailPercentile(c.n)
		if p != c.pct || b != c.beyond || ok != c.ok {
			t.Errorf("tailPercentile(%d) = (p%v, %d beyond, %v), want (p%v, %d, %v)", c.n, p, b, ok, c.pct, c.beyond, c.ok)
		}
	}
}

func TestPercentile(t *testing.T) {
	s := rangeSamples(100) // 100 ms … 1 ms, unsorted order
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{50, 50 * time.Millisecond}, {90, 90 * time.Millisecond}, {99, 99 * time.Millisecond}, {100, 100 * time.Millisecond}, {0, 1 * time.Millisecond}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of no samples is not 0")
	}
}

func TestTailOverBlocks(t *testing.T) {
	// Five blocks of 200: the run's 1000 samples pick p99 (10 beyond).
	// One block is slowed tenfold by a noise burst; the median over
	// blocks ignores it.
	var bs [][]time.Duration
	for b := 0; b < 5; b++ {
		block := rangeSamples(200)
		if b == 2 {
			for i := range block {
				block[i] *= 10
			}
		}
		bs = append(bs, block)
	}
	v, p, beyond := tail(bs)
	if p != 99 || beyond != 10 || v != 198*time.Millisecond {
		t.Errorf("tail = (%v, p%v, %d beyond), want (198ms, p99, 10)", v, p, beyond)
	}
	// Under 20 samples the rule cannot be met: the maximum, flagged.
	v, p, beyond = tail([][]time.Duration{msSamples(3, 9), msSamples(4)})
	if v != 9*time.Millisecond || p != 100 || beyond != 0 {
		t.Errorf("small-sample tail = (%v, p%v, %d beyond), want (9ms, p100, 0)", v, p, beyond)
	}
}

func TestMedian(t *testing.T) {
	if got := medianFloat([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := medianFloat([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

// twoEdges is a 3-vertex path with edge weights 3 and 5 on the
// benchmark hierarchy (cm(0) = 8).
func twoEdges() (*graph.Graph, *hierarchy.Hierarchy) {
	g := graph.New(3)
	for v := 0; v < 3; v++ {
		g.SetDemand(v, 0.5)
	}
	g.AddEdge(0, 1, 3)
	g.AddEdge(1, 2, 5)
	return g, newHierarchy()
}

func TestCostNorm(t *testing.T) {
	g, H := twoEdges()
	if got := costNorm(g, H, 16); got != 0.25 {
		t.Errorf("costNorm = %v, want 16 / (8 × 8) = 0.25", got)
	}
	if got := costNorm(g, H, 64); got != 1 {
		t.Errorf("every edge across sockets: costNorm = %v, want 1", got)
	}
	if got := costNorm(graph.New(2), H, 0); got != 0 {
		t.Errorf("edgeless graph: costNorm = %v, want 0", got)
	}
}

func TestCertify(t *testing.T) {
	g, H := twoEdges()
	// Vertices 0,1 share a core; 2 sits on the other socket: edge
	// (1,2) pays cm(0) = 8, so the cost is 5 × 8 = 40.
	assign := []int{0, 0, 4}
	cost := metrics.CostLCA(g, H, assign)
	viol := metrics.Violation(g, H, assign)
	if cost != 40 {
		t.Fatalf("fixture cost = %v, want 40", cost)
	}
	if err := certify(g, H, assign, cost, viol); err != nil {
		t.Fatalf("a correct answer fails: %v", err)
	}
	if err := certify(g, H, assign, cost*(1+1e-12), viol); err != nil {
		t.Errorf("a cost off by summation order fails: %v", err)
	}
	bad := []struct {
		name   string
		assign []int
		cost   float64
		viol   []float64
	}{
		{"corrupted cost", assign, cost + 0.5, viol},
		{"short assignment", assign[:2], cost, viol},
		{"leaf beyond k", []int{0, 0, 8}, cost, viol},
		{"negative leaf", []int{0, -1, 4}, cost, viol},
		{"moved vertex, stale cost", []int{0, 4, 4}, cost, viol},
		{"corrupted violation", assign, cost, []float64{viol[0], viol[1], viol[2] + 0.1}},
		{"missing violation level", assign, cost, viol[:2]},
	}
	for _, b := range bad {
		if err := certify(g, H, b.assign, b.cost, b.viol); err == nil {
			t.Errorf("%s: certificate passed", b.name)
		}
	}
}

func TestLostToPolish(t *testing.T) {
	g, H := twoEdges()
	ladder := func(tier string, cost float64) *answer {
		a := &answer{Cost: cost}
		a.Degradation = &struct {
			Tier    string `json:"tier"`
			Partial bool   `json:"partial"`
			Tiers   []struct {
				Name      string  `json:"name"`
				State     string  `json:"state"`
				ElapsedMS float64 `json:"elapsed_ms"`
			} `json:"tiers"`
		}{Tier: tier}
		return a
	}
	if !lostToPolish(g, H, ladder("full_dp", 64)) {
		t.Error("a DP answer at the worst possible cost was not beaten by the refined baseline")
	}
	if lostToPolish(g, H, ladder("full_dp", 0)) {
		t.Error("a zero-cost DP answer was beaten")
	}
	if lostToPolish(g, H, ladder("baseline", 64)) {
		t.Error("a baseline answer counted as a skipped polish")
	}
	if lostToPolish(g, H, &answer{Cost: 64}) {
		t.Error("a result-cache answer (no ladder) counted as a skipped polish")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "ladder", Start: 0, End: 100, Parent: -1},
		{Name: "full", Start: 10, End: 40, Parent: 0},
		{Name: "capped", Start: 30, End: 60, Parent: 0}, // overlaps full by 10
		{Name: "late", Start: 90, End: 120, Parent: 0},  // runs past its parent
		{Name: "dp", Start: 15, End: 35, Parent: 1},     // grandchild of ladder
		{Name: "open", Start: 5, End: -1, Parent: 0},    // never closed
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		// 100 − |[10,60] ∪ [90,100]| = 100 − 60: the overlap is
		// subtracted once, the part of "late" past 100 not at all.
		"ladder": 40,
		"full":   30 - 20,
		"capped": 30,
		"late":   30,
		"dp":     20,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, got[name], w)
		}
	}
	if _, ok := got["open"]; ok {
		t.Errorf("an unclosed span has a self time")
	}
}

func TestRecorderOff(t *testing.T) {
	var r *recorder
	id := r.begin("x", -1, 0)
	r.end(id)
	if id != -1 {
		t.Errorf("nil recorder returned span %d", id)
	}
}

func TestZipfCounts(t *testing.T) {
	var total float64
	for r := 0; r < 24; r++ {
		total += math.Pow(float64(r+1), -zipfS)
	}
	for _, n := range []int{1, 10, 1100, 2200} {
		c := zipfCounts(24, n)
		sum := 0
		for r, x := range c {
			sum += x
			if share := math.Pow(float64(r+1), -zipfS) / total * float64(n); math.Abs(float64(x)-share) > 1 {
				t.Errorf("n=%d: rank %d gets %d, its share is %.2f", n, r, x, share)
			}
		}
		if sum != n {
			t.Errorf("n=%d: counts sum to %d", n, sum)
		}
	}
}

func TestGenerateIsSeeded(t *testing.T) {
	for _, name := range []string{"cold_place", "resubmit", "session_drift"} {
		a, _ := generate(name, 7, 1)
		b, _ := generate(name, 7, 1)
		c, _ := generate(name, 8, 1)
		if len(a.ops) != len(b.ops) || len(a.ops) == 0 {
			t.Fatalf("%s: %d vs %d ops", name, len(a.ops), len(b.ops))
		}
		same, differ := true, false
		for i := range a.ops {
			same = same && bytes.Equal(a.ops[i].body, b.ops[i].body) && bytes.Equal(a.ops[i].patchBody, b.ops[i].patchBody)
			differ = differ || !bytes.Equal(a.ops[i].body, c.ops[i].body) || !bytes.Equal(a.ops[i].patchBody, c.ops[i].patchBody)
		}
		if !same {
			t.Errorf("%s: one seed made two sequences", name)
		}
		if !differ {
			t.Errorf("%s: seeds 7 and 8 made the same sequence", name)
		}
	}
	if _, err := generate("nope", 1, 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestSessionDeltasValid replays a session_drift sequence through
// treedecomp.Apply, which rejects an add of an existing edge and a
// remove or reweight of a missing one, and checks the client mirror
// tracks the result.
func TestSessionDeltasValid(t *testing.T) {
	w, _ := generate("session_drift", 3, 5)
	gs := make([]*graph.Graph, len(w.instances))
	mirrors := make([]*graph.Graph, len(w.instances))
	for i, in := range w.instances {
		gs[i], mirrors[i] = in.graph(), in.graph()
	}
	kinds := map[string]int{}
	for i, op := range w.ops {
		d := op.delta
		kinds[d.Op]++
		err := treedecomp.Apply(gs[op.inst], []treedecomp.Delta{{Op: deltaOps[d.Op], U: d.U, V: d.V, Weight: d.Weight}})
		if err != nil {
			t.Fatalf("op %d (%s): %v", i, d.Op, err)
		}
		applyMirror(mirrors[op.inst], d)
	}
	for i := range gs {
		if math.Abs(gs[i].TotalWeight()-mirrors[i].TotalWeight()) > 1e-9 || gs[i].M() != mirrors[i].M() {
			t.Errorf("session %d: mirror diverged", i)
		}
	}
	for _, k := range []string{"reweight_edge", "add_edge", "remove_edge"} {
		if kinds[k] == 0 {
			t.Errorf("no %s deltas in %d ops", k, len(w.ops))
		}
	}
}
