package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"hierpart/internal/cache/diskstore"
	"hierpart/internal/hgp"
	"hierpart/internal/instio"
	"hierpart/internal/metrics"
	"hierpart/internal/stream"
	"hierpart/internal/telemetry"
)

// floorWinRequest is a ladder request the baseline floor wins: a
// 5-stage, 4-wide streaming pipeline drawn from internal/stream (seed
// 1010, 40–80 msg/s channels, 0.1–0.4 operator demands) on 2 sockets
// × 4 cores. The full DP completes on it and loses the selection.
func floorWinRequest() PartitionRequest {
	rng := rand.New(rand.NewSource(1010))
	rate := 40 + 40*rng.Float64()
	g := stream.Pipeline(rng, 5, 4, 0.1, 0.4, rate).CommGraph()
	var req PartitionRequest
	req.Hierarchy = instio.HierarchySpec{Deg: []int{2, 4}, CM: []float64{8, 2, 0}}
	req.N = g.N()
	for v := 0; v < g.N(); v++ {
		req.Demands = append(req.Demands, g.Demand(v))
	}
	for _, e := range g.Edges() {
		req.Edges = append(req.Edges, [3]float64{float64(e.U), float64(e.V), e.Weight})
	}
	req.Seed = 1
	return req
}

// relabelled returns req's instance with vertex v renamed perm[v], the
// edge list in its original order.
func relabelled(req PartitionRequest, perm []int) PartitionRequest {
	out := req
	out.Demands = make([]float64, req.N)
	for v, d := range req.Demands {
		out.Demands[perm[v]] = d
	}
	out.Edges = make([][3]float64, len(req.Edges))
	for i, e := range req.Edges {
		out.Edges[i] = [3]float64{float64(perm[int(e[0])]), float64(perm[int(e[1])]), e[2]}
	}
	return out
}

func mustPartition(t *testing.T, h http.Handler, req PartitionRequest) PartitionResponse {
	t.Helper()
	rec := postPartition(t, h, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body = %s", rec.Code, rec.Body.String())
	}
	return decodeResponse(t, rec)
}

// sameAnswer fails unless got carries want's placement and cost, bit
// for bit.
func sameAnswer(t *testing.T, what string, got, want PartitionResponse) {
	t.Helper()
	if !reflect.DeepEqual(got.Assignment, want.Assignment) || math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
		t.Fatalf("%s: answer (cost %v) differs from the cold ladder's (cost %v):\n got %v\nwant %v",
			what, got.Cost, want.Cost, got.Assignment, want.Assignment)
	}
}

// Every serving path gives a ladder request the cold ladder's answer on
// a tenant the floor wins, whatever put the DP result in the cache: the
// request's own earlier run, an isomorphic submission under -canon, a
// no_degrade solve, or a peer. A no_degrade request still gets the DP
// placement.
func TestLadderAnswerAgreesAcrossCachePaths(t *testing.T) {
	ladder := floorWinRequest()
	dpOnly := ladder
	dpOnly.NoDegrade = true
	perm := rand.New(rand.NewSource(7)).Perm(ladder.N)
	moved := relabelled(ladder, perm)

	coldOn := func(cfg Config, req PartitionRequest) PartitionResponse {
		return mustPartition(t, newTestServer(t, cfg).Handler(), req)
	}
	cold := coldOn(Config{}, ladder)
	if cold.Degradation == nil || cold.Degradation.Tier != "baseline" || cold.Degradation.Tiers[0].State != "completed" {
		t.Fatalf("the fixture no longer has a completed full tier losing to the floor: %+v", cold.Degradation)
	}
	coldDP := coldOn(Config{}, dpOnly)
	if coldDP.Cost != cold.Degradation.Tiers[0].Cost {
		t.Fatalf("no_degrade cost %v, the ladder's full tier reported %v", coldDP.Cost, cold.Degradation.Tiers[0].Cost)
	}

	cases := []struct {
		name  string
		cfg   Config
		prime func(t *testing.T, h http.Handler)
		req   PartitionRequest
		want  PartitionResponse
	}{
		{name: "cold", req: ladder, want: cold},
		{
			name:  "memoized repeat",
			prime: func(t *testing.T, h http.Handler) { mustPartition(t, h, ladder) },
			req:   ladder, want: cold,
		},
		{
			name:  "canon relabelling",
			cfg:   Config{Canon: true},
			prime: func(t *testing.T, h http.Handler) { mustPartition(t, h, ladder) },
			req:   moved, want: coldOn(Config{Canon: true}, moved),
		},
		{
			name:  "no_degrade first",
			prime: func(t *testing.T, h http.Handler) { sameAnswer(t, "no_degrade", mustPartition(t, h, dpOnly), coldDP) },
			req:   ladder, want: cold,
		},
		{
			name:  "memoized no_degrade",
			prime: func(t *testing.T, h http.Handler) { mustPartition(t, h, ladder) },
			req:   dpOnly, want: coldDP,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(t, tc.cfg)
			if tc.prime != nil {
				tc.prime(t, s.Handler())
			}
			sameAnswer(t, tc.name, mustPartition(t, s.Handler(), tc.req), tc.want)
			// And again, now that the entry's verdict is settled.
			sameAnswer(t, tc.name+" (again)", mustPartition(t, s.Handler(), tc.req), tc.want)
		})
	}

	t.Run("peer fetched", func(t *testing.T) {
		nodes := startTestCluster(t, 2, func(i int, cfg *Config) { cfg.ResultCacheEntries = 64 })
		owner := nodeIndex(nodes, nodes[0].srv.cluster.ownerOf(resultKeyFor(t, ladder)))
		other := nodes[1-owner]
		sameAnswer(t, "owner, no_degrade", mustPartition(t, nodes[owner].srv.Handler(), dpOnly), coldDP)
		got := mustPartition(t, other.srv.Handler(), ladder)
		sameAnswer(t, "fetched, ladder", got, cold)
		if got.ResultCacheHit || got.PeerFetchHit || !got.Degradation.Tiers[0].Cached {
			t.Fatalf("a floor win over a fetched DP result: result_cache_hit=%v peer_fetch_hit=%v cached=%v, want false/false/true",
				got.ResultCacheHit, got.PeerFetchHit, got.Degradation.Tiers[0].Cached)
		}
		if n := other.reg.Counter("decomp_builds_total").Value(); n != 0 {
			t.Fatalf("the fetching node built %d decompositions, want 0", n)
		}
		sameAnswer(t, "fetched, no_degrade", mustPartition(t, other.srv.Handler(), dpOnly), coldDP)
	})
}

// The memoized path runs the floor only: no decomposition lookup or
// build, no DP, no solve_seconds sample. The full_dp report says the
// rung was cached, and the tier-hit counter shows it in both stats
// formats.
func TestMemoizedFullTierRunsNoDP(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := newTestServer(t, Config{Registry: reg})
	if got := getStats(t, s.Handler()); got.ResultCache.TierHits != 0 || got.Metrics.Counters["result_cache_tier_hits_total"] != 0 {
		t.Fatalf("tier hits before any request: %+v", got.ResultCache)
	}
	if _, ok := getStats(t, s.Handler()).Metrics.Counters["result_cache_tier_hits_total"]; !ok {
		t.Fatal("result_cache_tier_hits_total is not pre-registered")
	}
	cold := mustPartition(t, s.Handler(), floorWinRequest())
	if cold.Degradation.Tiers[0].Cached {
		t.Fatal("a cold full tier reports cached")
	}
	if got := reg.Counter("result_cache_inserts_total").Value(); got != 1 {
		t.Fatalf("result_cache_inserts_total = %d after a completed-but-lost full tier, want 1", got)
	}

	counters := []string{"decomp_builds_total", "decomp_cache_hits_total", "decomp_cache_misses_total", "result_cache_inserts_total"}
	before := map[string]int64{}
	for _, c := range counters {
		before[c] = reg.Counter(c).Value()
	}
	solves := reg.Histogram("solve_seconds").Count()

	memo := mustPartition(t, s.Handler(), floorWinRequest())
	d := memo.Degradation
	if d == nil || d.Tier != "baseline" || !d.Tiers[0].Cached || d.Tiers[0].State != "completed" || d.Tiers[1].Cached {
		t.Fatalf("memoized degradation block = %+v, want a baseline win over a cached, completed full_dp", d)
	}
	if memo.ResultCacheHit || memo.CacheHit || memo.DecomposeMS != 0 || memo.SolveMS != 0 {
		t.Fatalf("memoized floor win: result_cache_hit=%v cache_hit=%v decompose_ms=%v solve_ms=%v, want false/false/0/0",
			memo.ResultCacheHit, memo.CacheHit, memo.DecomposeMS, memo.SolveMS)
	}
	for _, c := range counters {
		if got := reg.Counter(c).Value(); got != before[c] {
			t.Fatalf("%s moved %d → %d on the memoized path", c, before[c], got)
		}
	}
	if got := reg.Histogram("solve_seconds").Count(); got != solves {
		t.Fatalf("solve_seconds observed %d samples on the memoized path, want 0", got-solves)
	}
	st := getStats(t, s.Handler())
	if st.ResultCache.TierHits != 1 || st.Metrics.Counters["result_cache_tier_hits_total"] != 1 {
		t.Fatalf("tier hits = %d (block) / %d (counter), want 1", st.ResultCache.TierHits, st.Metrics.Counters["result_cache_tier_hits_total"])
	}
	if st.ResultCache.Hits != 1 || st.ResultCache.Misses != 1 {
		t.Fatalf("result_cache lookups = %d hits / %d misses, want 1/1", st.ResultCache.Hits, st.ResultCache.Misses)
	}
}

// A breaker floor-only answer records no verdict: the full tier never
// ran, so nothing says which rung wins. The entry a no_degrade solve
// left behind stays verdict-free.
func TestBreakerFloorAnswerRecordsNoVerdict(t *testing.T) {
	s := newTestServer(t, Config{})
	dpOnly := floorWinRequest()
	dpOnly.NoDegrade = true
	mustPartition(t, s.Handler(), dpOnly)
	key := resultKeyFor(t, dpOnly)

	s.brk = newBreaker(1, time.Hour) // any live heap trips it on the next admit
	resp := mustPartition(t, s.Handler(), floorWinRequest())
	if resp.Degradation == nil || resp.Degradation.Tiers[0].State != "skipped" {
		t.Fatalf("degradation = %+v, want a floor-only answer", resp.Degradation)
	}
	v, ok := s.results.Peek(key)
	if !ok {
		t.Fatal("the no_degrade entry is gone")
	}
	if e := v.(*resultEntry); e.verdict != verdictNone {
		t.Fatalf("floor-only answer recorded verdict %d", e.verdict)
	}
}

// A pushed result with the right shape but a wrong cost is caught by
// the first request that uses it: that request gets a valid cold
// answer, the lie is counted once and evicted, and the repeat is served
// the real result.
func TestPeerResultWithWrongCostIsCertified(t *testing.T) {
	for _, noDegrade := range []bool{true, false} {
		nodes := startTestCluster(t, 2, func(i int, cfg *Config) { cfg.ResultCacheEntries = 64 })
		nd := nodes[0]
		req := testRequest()
		req.NoDegrade = noDegrade
		g, H, err := req.Instance.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		// The true DP placement under half its cost: only a recomputation
		// tells it from the real entry, and its cost undercuts the floor.
		real := mustPartition(t, newTestServer(t, Config{}).Handler(), req)
		res := &hgp.Result{
			Assignment: real.Assignment, Cost: real.Cost / 2, TreeCost: real.Cost / 2,
			PerTreeCosts: []float64{real.Cost / 2, real.Cost / 2}, Violation: real.Violation,
		}
		body := diskstore.WrapWire(diskstore.EncodeResult(res))
		preq, _ := http.NewRequest(http.MethodPut, nd.url+"/v1/peer/result/"+resultKeyFor(t, req), bytes.NewReader(body))
		put, err := http.DefaultClient.Do(preq)
		if err != nil {
			t.Fatal(err)
		}
		put.Body.Close()
		if put.StatusCode != http.StatusNoContent {
			t.Fatalf("push: status %d, want 204", put.StatusCode)
		}

		for i := 0; i < 2; i++ {
			resp := mustPartition(t, nd.srv.Handler(), req)
			a := metrics.Assignment(resp.Assignment)
			if err := a.Validate(g, H); err != nil {
				t.Fatalf("no_degrade=%v request %d: invalid answer: %v", noDegrade, i, err)
			}
			if c := metrics.CostLCA(g, H, a); c != resp.Cost || resp.Cost == res.Cost {
				t.Fatalf("no_degrade=%v request %d: answer cost %v, its assignment costs %v", noDegrade, i, resp.Cost, c)
			}
			if i == 0 && resp.ResultCacheHit {
				t.Fatalf("no_degrade=%v: the planted result was served as a hit", noDegrade)
			}
		}
		if got := labeled(nd.reg, "certify_failures_total", "source", "result_hit"); got != 1 {
			t.Fatalf("no_degrade=%v: certify_failures_total{source=result_hit} = %d, want 1", noDegrade, got)
		}
	}
}

// Off the canon path a request's edge order is its own: the same edges
// listed in another order, endpoints flipped, must share the cache keys
// and get the same cold answer, bit for bit, or a cache hit would hand
// one caller the other's graph's answer. A repeated edge's parts sum
// into one weight, which must not depend on their order either.
func TestShuffledEdgeListSharesKeyAndAnswer(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, base := range []PartitionRequest{floorWinRequest(), testRequest()} {
		shuffled := base
		shuffled.Edges = append([][3]float64(nil), base.Edges...)
		rng.Shuffle(len(shuffled.Edges), func(i, j int) {
			shuffled.Edges[i], shuffled.Edges[j] = shuffled.Edges[j], shuffled.Edges[i]
		})
		for i, e := range shuffled.Edges {
			if rng.Intn(2) == 0 {
				shuffled.Edges[i] = [3]float64{e[1], e[0], e[2]}
			}
		}
		// One edge listed in three parts, in two orders: in floating
		// point 0.1+0.2+0.3 != 0.2+0.3+0.1.
		u, v := 0.0, 2.0
		base.Edges = append(base.Edges[:len(base.Edges):len(base.Edges)],
			[3]float64{u, v, 0.1}, [3]float64{v, u, 0.2}, [3]float64{u, v, 0.3})
		shuffled.Edges = append(shuffled.Edges, [3]float64{u, v, 0.2}, [3]float64{u, v, 0.3}, [3]float64{v, u, 0.1})
		if decompKeyFor(t, shuffled) != decompKeyFor(t, base) || resultKeyFor(t, shuffled) != resultKeyFor(t, base) {
			t.Fatal("a reordered edge list changed the cache keys")
		}
		for _, noDegrade := range []bool{false, true} {
			base.NoDegrade, shuffled.NoDegrade = noDegrade, noDegrade
			want := mustPartition(t, newTestServer(t, Config{}).Handler(), base)
			got := mustPartition(t, newTestServer(t, Config{}).Handler(), shuffled)
			sameAnswer(t, "reordered edges", got, want)
		}
	}
}

// Concurrent ladder and no_degrade requests racing on one entry without
// a verdict — recording it, replaying it — each get their path's cold
// answer.
func TestMemoConcurrentRequestsAgree(t *testing.T) {
	ladder := floorWinRequest()
	dpOnly := ladder
	dpOnly.NoDegrade = true
	wantLadder := mustPartition(t, newTestServer(t, Config{}).Handler(), ladder)
	wantDP := mustPartition(t, newTestServer(t, Config{}).Handler(), dpOnly)

	s := newTestServer(t, Config{MaxConcurrent: 8, MaxQueue: 32})
	mustPartition(t, s.Handler(), dpOnly) // an entry with no verdict
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		req, want := ladder, wantLadder
		if i%3 == 0 {
			req, want = dpOnly, wantDP
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := postPartition(t, s.Handler(), req)
			if rec.Code != http.StatusOK {
				t.Errorf("status = %d, body = %s", rec.Code, rec.Body.String())
				return
			}
			var got PartitionResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
				t.Errorf("decoding: %v", err)
				return
			}
			if !reflect.DeepEqual(got.Assignment, want.Assignment) || got.Cost != want.Cost {
				t.Errorf("no_degrade=%v: cost %v, want the cold %v", req.NoDegrade, got.Cost, want.Cost)
			}
		}()
	}
	wg.Wait()
}
