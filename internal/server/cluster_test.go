package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hierpart/internal/cache"
	"hierpart/internal/cache/diskstore"
	"hierpart/internal/canon"
	"hierpart/internal/faultinject"
	"hierpart/internal/graph"
	"hierpart/internal/hgp"
	"hierpart/internal/metrics"
	"hierpart/internal/telemetry"
	"hierpart/internal/treedecomp"
)

// swapHandler lets an httptest server exist (and hand out its URL)
// before the Server that will back it does: Config.Peers needs every
// peer's URL, and each peer's URL only exists once its listener is up.
type swapHandler struct{ h atomic.Value }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.h.Load().(http.Handler).ServeHTTP(w, r)
}

type testNode struct {
	srv  *Server
	ts   *httptest.Server
	reg  *telemetry.Registry
	url  string
	swap *swapHandler
}

// startTestCluster brings up n in-process daemons that know each other
// as a shard group. mutate may adjust each node's Config before New.
// The helper blocks until every node's health poller has seen every
// peer healthy (unless the poll interval was mutated out of range), so
// tests start from a converged cluster.
func startTestCluster(t *testing.T, n int, mutate func(i int, cfg *Config)) []*testNode {
	t.Helper()
	nodes := make([]*testNode, n)
	swaps := make([]*swapHandler, n)
	peers := make([]string, n)
	for i := range nodes {
		sw := &swapHandler{}
		sw.h.Store(http.NotFoundHandler())
		ts := httptest.NewServer(sw)
		swaps[i] = sw
		peers[i] = ts.URL
		nodes[i] = &testNode{ts: ts, url: ts.URL, swap: sw}
	}
	for i := range nodes {
		reg := telemetry.NewRegistry()
		cfg := Config{
			Registry:           reg,
			Peers:              peers,
			Self:               peers[i],
			PeerBackoff:        5 * time.Millisecond,
			PeerHealthInterval: 25 * time.Millisecond,
			ResultCacheEntries: -1,
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i].srv, nodes[i].reg = s, reg
		swaps[i].h.Store(s.Handler())
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			_ = nd.srv.Shutdown(ctx)
			cancel()
			nd.ts.Close()
		}
	})
	// Converge: a node may have polled a peer's placeholder handler
	// (404 → unroutable) before that peer's Server was swapped in.
	deadline := time.Now().Add(5 * time.Second)
	for _, nd := range nodes {
		if nd.srv.cfg.PeerHealthInterval > time.Second {
			continue // this test runs without gossip; optimistic state stands
		}
		for _, peer := range peers {
			if peer == nd.url {
				continue
			}
			for !nd.srv.cluster.routable(peer) {
				if time.Now().After(deadline) {
					t.Fatalf("cluster did not converge: %s never saw %s healthy", nd.url, peer)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}
	return nodes
}

// solverFor mirrors handlePartition's solver construction so tests can
// compute the exact cache keys a request will route on.
func solverFor(req PartitionRequest, cfg Config) hgp.Solver {
	maxStates := req.MaxStates
	if maxStates == 0 || maxStates > cfg.MaxStates {
		maxStates = cfg.MaxStates
	}
	return hgp.Solver{
		Eps: req.Eps, Trees: req.Trees, Seed: req.Seed,
		FMPasses: req.FMPasses, FlowRefine: req.FlowRefine,
		MaxStates: maxStates,
	}
}

func decompKeyFor(t *testing.T, req PartitionRequest) string {
	t.Helper()
	g, _, err := req.Instance.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	return cache.DecompKey(g, solverFor(req, Config{}.withDefaults()).DecompOptions())
}

func resultKeyFor(t *testing.T, req PartitionRequest) string {
	t.Helper()
	g, H, err := req.Instance.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	sv := solverFor(req, Config{}.withDefaults())
	return cache.ResultKey(g, H, sv.DecompOptions(), sv.Eps, sv.MaxStates)
}

// canonResultKeyFor is resultKeyFor for a daemon running with -canon.
func canonResultKeyFor(t *testing.T, req PartitionRequest) string {
	t.Helper()
	g, H, err := req.Instance.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	f, ok := canon.Canonicalize(g)
	if !ok {
		t.Fatal("test instance refused canonicalization")
	}
	sv := solverFor(req, Config{}.withDefaults())
	return cache.ResultKeyCanon(f.Fingerprint, H, sv.DecompOptions(), sv.Eps, sv.MaxStates)
}

func nodeIndex(nodes []*testNode, url string) int {
	for i, nd := range nodes {
		if nd.url == url {
			return i
		}
	}
	return -1
}

// reqOwnedBy searches seeds until the request's key (decomp or result,
// per keyFn) is owned by nodes[idx] — ownership is a hash, so tests
// steer it by varying the seed.
func reqOwnedBy(t *testing.T, nodes []*testNode, idx int, keyFn func(*testing.T, PartitionRequest) string) PartitionRequest {
	t.Helper()
	for seed := int64(1); seed <= 300; seed++ {
		req := testRequest()
		req.Seed = seed
		owner := nodes[0].srv.cluster.ownerOf(keyFn(t, req))
		if nodeIndex(nodes, owner) == idx {
			return req
		}
	}
	t.Fatalf("no seed in 1..300 lands on node %d", idx)
	return PartitionRequest{}
}

func labeled(reg *telemetry.Registry, name string, labels ...string) int64 {
	return reg.Counter(telemetry.Series(name, labels...)).Value()
}

// waitPushesSettled polls the node's peer_push_inflight gauge to zero —
// the race-free barrier for "every owner-ward push has completed".
func waitPushesSettled(t *testing.T, nd *testNode) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for nd.reg.Gauge("peer_push_inflight").Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("peer pushes never settled")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// comparable strips the timing and provenance fields that legitimately
// differ between a locally solved response and a peer-served one; what
// remains must be identical to the bit.
func comparable(r PartitionResponse) PartitionResponse {
	r.ElapsedMS, r.DecomposeMS, r.SolveMS = 0, 0, 0
	r.CacheHit, r.ResultCacheHit, r.PeerFetchHit, r.CanonHit = false, false, false, false
	r.Degradation = nil
	return r
}

// A non-owner's miss is served over the wire from the owner's cache:
// one build cluster-wide, bit-identical answers, and the fetched entry
// re-serves locally afterwards.
func TestClusterPeerFetchServesNonOwner(t *testing.T) {
	nodes := startTestCluster(t, 2, nil)
	req := reqOwnedBy(t, nodes, 0, decompKeyFor)
	owner, other := nodes[0], nodes[1]

	first := decodeResponse(t, postPartition(t, owner.srv.Handler(), req))
	if first.PeerFetchHit {
		t.Fatal("owner's own build must not report a peer fetch")
	}
	if got := owner.reg.Counter("decomp_builds_total").Value(); got != 1 {
		t.Fatalf("owner builds = %d, want 1", got)
	}

	rec := postPartition(t, other.srv.Handler(), req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body = %s", rec.Code, rec.Body.String())
	}
	fetched := decodeResponse(t, rec)
	if !fetched.PeerFetchHit {
		t.Fatalf("non-owner must serve via peer fetch: %+v", fetched)
	}
	if fetched.CacheHit {
		t.Fatal("peer fetch must not masquerade as a local cache hit")
	}
	if !reflect.DeepEqual(comparable(fetched), comparable(first)) {
		t.Fatalf("peer-fetched response diverged:\n%+v\n%+v", comparable(fetched), comparable(first))
	}
	if got := other.reg.Counter("decomp_builds_total").Value(); got != 0 {
		t.Fatalf("non-owner built %d decompositions, want 0 (fetched instead)", got)
	}
	if got := labeled(other.reg, "peer_fetch_total", "outcome", "hit"); got != 1 {
		t.Fatalf("peer_fetch_total{outcome=hit} = %d, want 1", got)
	}
	// The fetched entry now lives in the non-owner's LRU: a repeat is a
	// plain local hit, no second fetch.
	again := decodeResponse(t, postPartition(t, other.srv.Handler(), req))
	if !again.CacheHit || again.PeerFetchHit {
		t.Fatalf("repeat after fetch: CacheHit=%v PeerFetchHit=%v, want true/false", again.CacheHit, again.PeerFetchHit)
	}
	// Serving the fetch must not distort the owner's cache accounting:
	// Peek is invisible to hits/misses, so the owner still shows only
	// its own cold request (one miss, zero hits).
	if st := owner.srv.dec.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("owner LRU hits/misses = %d/%d, want 0/1 (peer serve must use Peek)", st.Hits, st.Misses)
	}
}

// A non-owner that builds (because the owner had nothing) pushes the
// entry owner-ward, so the owner later serves it from its own cache:
// still one build cluster-wide, just initiated on the "wrong" node.
func TestClusterNonOwnerBuildPushesToOwner(t *testing.T) {
	nodes := startTestCluster(t, 2, nil)
	req := reqOwnedBy(t, nodes, 0, decompKeyFor)
	owner, other := nodes[0], nodes[1]

	first := decodeResponse(t, postPartition(t, other.srv.Handler(), req))
	if first.PeerFetchHit {
		t.Fatal("owner had nothing; this must have been a local build")
	}
	if got := labeled(other.reg, "peer_fetch_total", "outcome", "miss"); got != 1 {
		t.Fatalf("peer_fetch_total{outcome=miss} = %d, want 1 (owner was consulted)", got)
	}
	if got := other.reg.Counter("decomp_builds_total").Value(); got != 1 {
		t.Fatalf("non-owner builds = %d, want 1", got)
	}
	waitPushesSettled(t, other)
	if got := labeled(other.reg, "peer_push_total", "outcome", "ok"); got != 1 {
		t.Fatalf("peer_push_total{outcome=ok} = %d, want 1", got)
	}

	warm := decodeResponse(t, postPartition(t, owner.srv.Handler(), req))
	if !warm.CacheHit {
		t.Fatal("owner must hit the pushed entry")
	}
	if got := owner.reg.Counter("decomp_builds_total").Value(); got != 0 {
		t.Fatalf("owner rebuilt despite the push: builds = %d, want 0", got)
	}
	if !reflect.DeepEqual(comparable(warm), comparable(first)) {
		t.Fatalf("pushed entry produced a different answer:\n%+v\n%+v", comparable(warm), comparable(first))
	}
}

// An injected corrupt body must be rejected like a damaged snapshot
// file and degrade to the local build — one miss counted, one build,
// a 200 answer, no double accounting.
func TestClusterCorruptPeerBodyFallsBackToLocalBuild(t *testing.T) {
	nodes := startTestCluster(t, 2, nil)
	req := reqOwnedBy(t, nodes, 0, decompKeyFor)
	owner, other := nodes[0], nodes[1]
	postPartition(t, owner.srv.Handler(), req) // prime the owner

	inj := faultinject.New(1).On(faultinject.PeerFetch, faultinject.Fault{Prob: 1, Count: 1, CorruptBody: true})
	t.Cleanup(faultinject.Activate(inj))

	rec := postPartition(t, other.srv.Handler(), req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body = %s", rec.Code, rec.Body.String())
	}
	resp := decodeResponse(t, rec)
	if resp.PeerFetchHit {
		t.Fatal("a corrupted fetch must not count as a peer hit")
	}
	if got := labeled(other.reg, "peer_fetch_total", "outcome", "corrupt"); got != 1 {
		t.Fatalf("peer_fetch_total{outcome=corrupt} = %d, want 1", got)
	}
	if got := inj.Fires(faultinject.PeerFetch); got != 1 {
		t.Fatalf("injector fired %d times, want 1", got)
	}
	if got := other.reg.Counter("decomp_cache_misses_total").Value(); got != 1 {
		t.Fatalf("decomp_cache_misses_total = %d, want exactly 1 (no double count on fallback)", got)
	}
	if got := other.reg.Counter("decomp_builds_total").Value(); got != 1 {
		t.Fatalf("fallback must build locally exactly once, got %d", got)
	}
}

// A dead owner costs retries once, then the per-peer breaker fast-fails
// fetches for its cooldown — and the daemon keeps answering from local
// builds throughout.
func TestClusterDeadPeerOpensBreaker(t *testing.T) {
	nodes := startTestCluster(t, 2, func(i int, cfg *Config) {
		// No gossip, long breaker: this test isolates the breaker path
		// from routing-time health shedding.
		cfg.PeerHealthInterval = time.Hour
		cfg.PeerBreakerCooldown = time.Hour
		cfg.PeerTimeout = 500 * time.Millisecond
		cfg.PeerRetries = 1
	})
	owner, other := nodes[0], nodes[1]
	owner.ts.Close() // SIGKILL stand-in: connections now refuse

	req1 := reqOwnedBy(t, nodes, 0, decompKeyFor)
	rec := postPartition(t, other.srv.Handler(), req1)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d with dead owner, want 200 via local fallback", rec.Code)
	}
	if got := labeled(other.reg, "peer_fetch_total", "outcome", "error"); got != 1 {
		t.Fatalf("peer_fetch_total{outcome=error} = %d, want 1", got)
	}
	// retries+1 = 2 consecutive failures < threshold 3: one more fetch
	// (a different key, same dead owner) crosses it.
	var req2 PartitionRequest
	for seed := int64(301); ; seed++ {
		req2 = testRequest()
		req2.Seed = seed
		if other.srv.cluster.ownerOf(decompKeyFor(t, req2)) == owner.url {
			break
		}
	}
	postPartition(t, other.srv.Handler(), req2)
	if got := other.srv.cluster.clients[owner.url].brk.snapshot(); got != breakerOpen {
		t.Fatalf("peer breaker state = %d after repeated failures, want open", got)
	}
	// Third key: the fetch must fast-fail without touching the wire.
	var req3 PartitionRequest
	for seed := int64(601); ; seed++ {
		req3 = testRequest()
		req3.Seed = seed
		if other.srv.cluster.ownerOf(decompKeyFor(t, req3)) == owner.url {
			break
		}
	}
	start := time.Now()
	rec = postPartition(t, other.srv.Handler(), req3)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d under open breaker, want 200", rec.Code)
	}
	if labeled(other.reg, "peer_fetch_total", "outcome", "breaker_open") == 0 {
		t.Fatal("open breaker must be visible in peer_fetch_total{outcome=breaker_open}")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("open-breaker request took %v; fast-fail is the point", elapsed)
	}
}

// Version-skewed peer bytes are rejected exactly like a version-skewed
// snapshot file, on both directions of the wire: a GET response falls
// back to the local build, a PUT is refused with its own error code.
func TestClusterVersionSkewRejected(t *testing.T) {
	// A stub "peer" from a newer/older build: serves frames whose RNG
	// stream version is bumped. Real daemons share this binary's
	// version, so skew must be manufactured.
	skewed := func(payload []byte) []byte {
		raw := diskstore.WrapWire(payload)
		raw[len("HGPSNAP\x01")+4]++ // stream-version field
		return raw
	}
	dec := treedecomp.Build(mustGraph(t), treedecomp.Options{Trees: 1, Seed: 1})
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && len(r.URL.Path) > len("/v1/peer/decomp/") {
			w.Write(skewed(diskstore.EncodeDecompEntry(dec, nil)))
			return
		}
		w.WriteHeader(http.StatusNotFound)
	}))
	defer stub.Close()

	sw := &swapHandler{}
	sw.h.Store(http.NotFoundHandler())
	ts := httptest.NewServer(sw)
	defer ts.Close()
	reg := telemetry.NewRegistry()
	s, err := New(Config{
		Registry:           reg,
		Peers:              []string{stub.URL, ts.URL},
		Self:               ts.URL,
		PeerHealthInterval: time.Hour, // stub has no health endpoint; stay optimistic
		ResultCacheEntries: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = s.Shutdown(ctx)
		cancel()
	})
	sw.h.Store(s.Handler())

	// Find a request the stub owns, so the fetch actually goes there.
	var req PartitionRequest
	for seed := int64(1); ; seed++ {
		if seed > 300 {
			t.Fatal("no seed lands on the stub peer")
		}
		req = testRequest()
		req.Seed = seed
		if s.cluster.ownerOf(decompKeyFor(t, req)) == stub.URL {
			break
		}
	}
	rec := postPartition(t, s.Handler(), req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 via local fallback", rec.Code)
	}
	if got := labeled(reg, "peer_fetch_total", "outcome", "version_mismatch"); got != 1 {
		t.Fatalf("peer_fetch_total{outcome=version_mismatch} = %d, want 1", got)
	}

	// PUT direction: the daemon must refuse skewed and corrupt bodies
	// with distinct codes, and accept nothing from either. A fresh key
	// isolates the check from the entry the local fallback just cached.
	key := "ab12" + decompKeyFor(t, req)[4:]
	put := func(body []byte) (*http.Response, apiError) {
		t.Helper()
		preq, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/peer/decomp/"+key, bytes.NewReader(body))
		resp, err := http.DefaultClient.Do(preq)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e apiError
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return resp, e
	}
	baseLen := s.dec.Len()
	resp, e := put(skewed(diskstore.EncodeDecompEntry(dec, nil)))
	if resp.StatusCode != http.StatusBadRequest || e.Code != "version_mismatch" {
		t.Fatalf("skewed PUT: status %d code %q, want 400 version_mismatch", resp.StatusCode, e.Code)
	}
	good := diskstore.WrapWire(diskstore.EncodeDecompEntry(dec, nil))
	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 0xFF
	resp, e = put(bad)
	if resp.StatusCode != http.StatusBadRequest || e.Code != "corrupt_frame" {
		t.Fatalf("corrupt PUT: status %d code %q, want 400 corrupt_frame", resp.StatusCode, e.Code)
	}
	if s.dec.Len() != baseLen {
		t.Fatal("rejected PUTs must not populate the cache")
	}
	// And a healthy PUT lands.
	resp, _ = put(good)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("valid PUT: status %d, want 204", resp.StatusCode)
	}
	if s.dec.Len() != baseLen+1 {
		t.Fatal("valid PUT must populate the cache")
	}
}

// A draining peer is shed at routing time: gossip reports "draining"
// distinctly from "ok", the poller demotes the peer, and fetches stop
// before they start.
func TestClusterShedsDrainingPeer(t *testing.T) {
	nodes := startTestCluster(t, 2, nil)
	owner, other := nodes[0], nodes[1]

	// Pin the gossip body first: drained daemons must say so.
	getHealth := func(nd *testNode) peerHealthView {
		t.Helper()
		resp, err := http.Get(nd.url + "/v1/peer/health")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("peer health status = %d, want 200 (the body carries the verdict)", resp.StatusCode)
		}
		var hv peerHealthView
		if err := json.NewDecoder(resp.Body).Decode(&hv); err != nil {
			t.Fatal(err)
		}
		return hv
	}
	if hv := getHealth(owner); hv.Status != "ok" {
		t.Fatalf("healthy peer reports %q, want ok", hv.Status)
	}
	owner.srv.Drain()
	if hv := getHealth(owner); hv.Status != "draining" {
		t.Fatalf("draining peer reports %q, want draining (distinct from ok)", hv.Status)
	}

	// The poller must demote the owner within a few intervals.
	deadline := time.Now().Add(5 * time.Second)
	for other.srv.cluster.routable(owner.url) {
		if time.Now().After(deadline) {
			t.Fatal("draining peer never shed from routing")
		}
		time.Sleep(5 * time.Millisecond)
	}

	req := reqOwnedBy(t, nodes, 0, decompKeyFor)
	rec := postPartition(t, other.srv.Handler(), req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 via local build", rec.Code)
	}
	if got := labeled(other.reg, "peer_fetch_total", "outcome", "peer_unhealthy"); got != 1 {
		t.Fatalf("peer_fetch_total{outcome=peer_unhealthy} = %d, want 1", got)
	}
	if got := labeled(other.reg, "peer_fetch_total", "outcome", "error"); got != 0 {
		t.Fatalf("shed fetch must not touch the wire; errors = %d", got)
	}

	// Data endpoints on the draining daemon refuse with 503 + reason.
	resp, err := http.Get(owner.url + "/v1/peer/decomp/" + decompKeyFor(t, req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("peer GET on draining daemon = %d, want 503", resp.StatusCode)
	}
}

// Full solve results travel peer-to-peer too: a result solved on its
// owner is served to a non-owner as a result-cache hit, bit-identical,
// and a non-owner's solve is pushed to the owner.
func TestClusterResultPeerFetchAndPush(t *testing.T) {
	nodes := startTestCluster(t, 2, func(i int, cfg *Config) {
		cfg.ResultCacheEntries = 64
	})
	owner, other := nodes[0], nodes[1]

	// Direction 1: owner solves, non-owner fetches.
	req := reqOwnedBy(t, nodes, 0, resultKeyFor)
	first := decodeResponse(t, postPartition(t, owner.srv.Handler(), req))
	rec := postPartition(t, other.srv.Handler(), req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body = %s", rec.Code, rec.Body.String())
	}
	fetched := decodeResponse(t, rec)
	if !fetched.ResultCacheHit || !fetched.PeerFetchHit {
		t.Fatalf("want a peer-served result-cache hit, got ResultCacheHit=%v PeerFetchHit=%v",
			fetched.ResultCacheHit, fetched.PeerFetchHit)
	}
	if !reflect.DeepEqual(comparable(fetched), comparable(first)) {
		t.Fatalf("peer-served result diverged:\n%+v\n%+v", comparable(fetched), comparable(first))
	}
	if got := other.reg.Counter("decomp_builds_total").Value(); got != 0 {
		t.Fatalf("non-owner ran %d builds for a peer-served result, want 0", got)
	}
	// The fetched result is cached locally: a repeat is a plain hit.
	again := decodeResponse(t, postPartition(t, other.srv.Handler(), req))
	if !again.ResultCacheHit || again.PeerFetchHit {
		t.Fatalf("repeat: ResultCacheHit=%v PeerFetchHit=%v, want true/false", again.ResultCacheHit, again.PeerFetchHit)
	}

	// Direction 2: non-owner solves a key the owner owns; the result is
	// pushed, and the owner answers from cache without solving.
	req2 := reqOwnedBy(t, nodes, 0, resultKeyFor)
	for req2.Seed == req.Seed {
		// Find a different seed also owned by node 0.
		base := req2.Seed
		for seed := base + 1; ; seed++ {
			req2 = testRequest()
			req2.Seed = seed
			if nodeIndex(nodes, nodes[0].srv.cluster.ownerOf(resultKeyFor(t, req2))) == 0 {
				break
			}
		}
	}
	solved := decodeResponse(t, postPartition(t, other.srv.Handler(), req2))
	waitPushesSettled(t, other)
	ownerBuilds := owner.reg.Counter("decomp_builds_total").Value()
	served := decodeResponse(t, postPartition(t, owner.srv.Handler(), req2))
	if !served.ResultCacheHit {
		t.Fatalf("owner must serve the pushed result from cache: %+v", served)
	}
	if got := owner.reg.Counter("decomp_builds_total").Value(); got != ownerBuilds {
		t.Fatal("owner solved despite the pushed result")
	}
	if !reflect.DeepEqual(comparable(served), comparable(solved)) {
		t.Fatalf("pushed result diverged:\n%+v\n%+v", comparable(served), comparable(solved))
	}
}

// The always-present cluster stats block and the single-node shape.
func TestClusterStatsBlock(t *testing.T) {
	nodes := startTestCluster(t, 2, nil)
	req := reqOwnedBy(t, nodes, 0, decompKeyFor)
	postPartition(t, nodes[0].srv.Handler(), req)
	postPartition(t, nodes[1].srv.Handler(), req)

	rec := httptest.NewRecorder()
	nodes[1].srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var stats StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if !stats.Cluster.Enabled {
		t.Fatal("cluster stats must report enabled")
	}
	if stats.Cluster.Self != nodes[1].url {
		t.Fatalf("cluster self = %q, want %q", stats.Cluster.Self, nodes[1].url)
	}
	if len(stats.Cluster.Peers) != 2 {
		t.Fatalf("cluster peers = %d rows, want 2", len(stats.Cluster.Peers))
	}
	if stats.Cluster.FetchHits != 1 {
		t.Fatalf("cluster fetch_hits = %d, want 1", stats.Cluster.FetchHits)
	}
	for _, row := range stats.Cluster.Peers {
		if !row.Healthy {
			t.Fatalf("peer %s reported unhealthy in a healthy cluster", row.Peer)
		}
	}

	// Single-node daemons render the same block, disabled.
	s := newTestServer(t, Config{})
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var solo StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &solo); err != nil {
		t.Fatal(err)
	}
	if solo.Cluster.Enabled {
		t.Fatal("single-node daemon must report cluster disabled")
	}
}

// Config validation: cluster mode demands a self identity inside the
// peer list and a cache to share.
func TestClusterConfigValidation(t *testing.T) {
	reg := telemetry.NewRegistry()
	if _, err := New(Config{Registry: reg, Peers: []string{"http://a:1"}}); err == nil {
		t.Fatal("missing Self must be rejected")
	}
	if _, err := New(Config{Registry: reg, Peers: []string{"http://a:1"}, Self: "http://b:2"}); err == nil {
		t.Fatal("Self outside Peers must be rejected")
	}
	if _, err := New(Config{Registry: reg, Peers: []string{"http://a:1"}, Self: "http://a:1", CacheEntries: -1}); err == nil {
		t.Fatal("cluster mode without caching must be rejected")
	}
	// A scheme-less peer would fail every poll and fetch with
	// "unsupported protocol scheme" — a cluster that sheds every key
	// forever. That misconfiguration must die at startup, not degrade.
	for _, bad := range []string{"a:1", "127.0.0.1:8080", "ftp://a:1", "http://"} {
		if _, err := New(Config{Registry: reg, Peers: []string{bad, "http://b:2"}, Self: "http://b:2"}); err == nil {
			t.Fatalf("peer %q without an http(s) base URL must be rejected", bad)
		}
	}
}

// With a shared secret configured, the peer surface authenticates every
// request: authenticated peers interoperate exactly as before, while a
// client without the secret gets 403 from every peer endpoint and can
// neither read nor poison the caches.
func TestClusterPeerSecretEnforced(t *testing.T) {
	const secret = "soak-test-secret"
	nodes := startTestCluster(t, 2, func(i int, cfg *Config) {
		cfg.PeerSecret = secret
	})
	req := reqOwnedBy(t, nodes, 0, decompKeyFor)
	owner, other := nodes[0], nodes[1]

	// Authenticated path first: the cluster works as without a secret
	// (startTestCluster already proved gossip converges — the pollers
	// authenticate too).
	postPartition(t, owner.srv.Handler(), req)
	fetched := decodeResponse(t, postPartition(t, other.srv.Handler(), req))
	if !fetched.PeerFetchHit {
		t.Fatalf("authenticated peer fetch must work: %+v", fetched)
	}

	key := decompKeyFor(t, req)
	deny := func(method, url string, body []byte, header http.Header) {
		t.Helper()
		var r *http.Request
		if body != nil {
			r, _ = http.NewRequest(method, url, bytes.NewReader(body))
		} else {
			r, _ = http.NewRequest(method, url, nil)
		}
		for k, v := range header {
			r.Header[k] = v
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e apiError
		_ = json.NewDecoder(resp.Body).Decode(&e)
		if resp.StatusCode != http.StatusForbidden || e.Code != "peer_auth" {
			t.Fatalf("%s %s without the secret: status %d code %q, want 403 peer_auth", method, url, resp.StatusCode, e.Code)
		}
	}
	// GET: the entry exists on the owner, but an unauthenticated reader
	// must not see it.
	deny(http.MethodGet, owner.url+"/v1/peer/decomp/"+key, nil, nil)
	// PUT: a structurally valid body under an arbitrary key must bounce
	// off authentication before any validation runs.
	dec := treedecomp.Build(mustGraph(t), treedecomp.Options{Trees: 1, Seed: 1})
	forged := diskstore.WrapWire(diskstore.EncodeDecompEntry(dec, nil))
	forgedKey := "ab12" + key[4:]
	baseLen := owner.srv.dec.Len()
	deny(http.MethodPut, owner.url+"/v1/peer/decomp/"+forgedKey, forged, nil)
	deny(http.MethodPut, owner.url+"/v1/peer/decomp/"+forgedKey, forged,
		http.Header{"X-Hgpd-Peer-Secret": []string{"wrong"}})
	if owner.srv.dec.Len() != baseLen {
		t.Fatal("unauthenticated PUT must not populate the cache")
	}
	// Health gossip is gated too: an unauthenticated prober learns
	// nothing about the daemon's load.
	deny(http.MethodGet, owner.url+"/v1/peer/health", nil, nil)
	if got := owner.reg.Counter("peer_auth_failures_total").Value(); got < 4 {
		t.Fatalf("peer_auth_failures_total = %d, want >= 4", got)
	}
}

// A secret mismatch between peers (half-rotated fleet, operator typo)
// is a deterministic 403: the fetch records one error without burning
// the retry budget, and the request degrades to a local solve.
func TestClusterPeerSecretMismatchFallsBack(t *testing.T) {
	nodes := startTestCluster(t, 2, func(i int, cfg *Config) {
		cfg.PeerSecret = "secret-" + string(rune('a'+i)) // distinct per node
		cfg.PeerHealthInterval = time.Hour               // stay optimistic; isolate the fetch path
	})
	req := reqOwnedBy(t, nodes, 0, decompKeyFor)
	owner, other := nodes[0], nodes[1]
	postPartition(t, owner.srv.Handler(), req)

	rec := postPartition(t, other.srv.Handler(), req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 via local fallback", rec.Code)
	}
	if resp := decodeResponse(t, rec); resp.PeerFetchHit {
		t.Fatal("a 403ed fetch must not count as a peer hit")
	}
	if got := labeled(other.reg, "peer_fetch_total", "outcome", "error"); got != 1 {
		t.Fatalf("peer_fetch_total{outcome=error} = %d, want exactly 1 (403 is deterministic; no retries)", got)
	}
	if got := other.reg.Counter("decomp_builds_total").Value(); got != 1 {
		t.Fatalf("fallback must build locally exactly once, got %d", got)
	}
}

// A pushed result marked Partial violates the result-cache invariant
// (only complete full-pipeline results are cached) and must be refused
// at the trust boundary, not trusted because pushers never send one.
func TestClusterRejectsPartialResultPush(t *testing.T) {
	nodes := startTestCluster(t, 2, func(i int, cfg *Config) {
		cfg.ResultCacheEntries = 64
	})
	owner := nodes[0]
	key := resultKeyFor(t, testRequest())

	partial := &hgp.Result{
		Assignment: []int{0, 1},
		Cost:       1, TreeCost: 1,
		PerTreeCosts: []float64{1},
		Partial:      true,
		TreesDone:    1,
	}
	put := func(res *hgp.Result) (*http.Response, apiError) {
		t.Helper()
		body := diskstore.WrapWire(diskstore.EncodeResult(res))
		preq, _ := http.NewRequest(http.MethodPut, owner.url+"/v1/peer/result/"+key, bytes.NewReader(body))
		resp, err := http.DefaultClient.Do(preq)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e apiError
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return resp, e
	}
	resp, e := put(partial)
	if resp.StatusCode != http.StatusBadRequest || e.Code != "partial_result" {
		t.Fatalf("partial push: status %d code %q, want 400 partial_result", resp.StatusCode, e.Code)
	}
	if _, ok := owner.srv.results.Peek(key); ok {
		t.Fatal("rejected partial result must not enter the result cache")
	}
	// The same payload with Partial cleared is a valid push.
	complete := *partial
	complete.Partial = false
	complete.TreesDone = 0
	if resp, e := put(&complete); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("complete push: status %d code %q, want 204", resp.StatusCode, e.Code)
	}
	if _, ok := owner.srv.results.Peek(key); !ok {
		t.Fatal("valid complete push must populate the result cache")
	}
}

// A result PUT through the peer surface is only structurally decoded,
// so the entry under a key can be the wrong shape for the request that
// key names. A short assignment must be served as a miss — never a 500
// from the canon translation, never a wrong-length 200 — both where the
// peer fetch brings it in and where the local result cache holds it.
func TestClusterShortResultIsServedAsMiss(t *testing.T) {
	for _, canonOn := range []bool{false, true} {
		t.Run(fmt.Sprintf("canon=%v", canonOn), func(t *testing.T) {
			nodes := startTestCluster(t, 2, func(i int, cfg *Config) {
				cfg.ResultCacheEntries = 64
				cfg.Canon = canonOn
			})
			keyFn := resultKeyFor
			if canonOn {
				keyFn = canonResultKeyFor
			}
			req := reqOwnedBy(t, nodes, 0, keyFn)
			key := keyFn(t, req)
			owner, other := nodes[0], nodes[1]
			g, H, err := req.Instance.Materialize()
			if err != nil {
				t.Fatal(err)
			}
			putShort := func() {
				t.Helper()
				short := &hgp.Result{Assignment: []int{0, 1}, Cost: 1, TreeCost: 1, PerTreeCosts: []float64{1}}
				body := diskstore.WrapWire(diskstore.EncodeResult(short))
				preq, _ := http.NewRequest(http.MethodPut, owner.url+"/v1/peer/result/"+key, bytes.NewReader(body))
				resp, err := http.DefaultClient.Do(preq)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusNoContent {
					t.Fatalf("short push: status %d, want 204 (the PUT checks structure only)", resp.StatusCode)
				}
			}
			check := func(nd *testNode, source string) PartitionResponse {
				t.Helper()
				rec := postPartition(t, nd.srv.Handler(), req)
				if rec.Code != http.StatusOK {
					t.Fatalf("status = %d (%s), want 200 from a local solve", rec.Code, rec.Body.String())
				}
				resp := decodeResponse(t, rec)
				if resp.ResultCacheHit {
					t.Fatalf("short result served as a hit: %+v", resp)
				}
				a := metrics.Assignment(resp.Assignment)
				if err := a.Validate(g, H); err != nil {
					t.Fatalf("invalid answer: %v", err)
				}
				if c := metrics.CostLCA(g, H, a); c != resp.Cost {
					t.Fatalf("answer cost %v, its assignment costs %v", resp.Cost, c)
				}
				if got := labeled(nd.reg, "certify_failures_total", "source", source); got != 1 {
					t.Fatalf("certify_failures_total{source=%s} = %d, want 1", source, got)
				}
				return resp
			}

			putShort()
			fetched := check(other, "peer_fetch")
			// The fetching node's solve pushes its full result to the
			// owner; put the short one back before the owner's own hit.
			waitPushesSettled(t, other)
			putShort()
			local := check(owner, "result_hit")
			if !reflect.DeepEqual(comparable(fetched), comparable(local)) {
				t.Fatalf("the two paths disagree:\n%+v\n%+v", fetched, local)
			}
		})
	}
}

// A replication push of a result this daemon already solved and checked
// leaves the held entry alone: the pushed copy is unchecked and has no
// floor verdict, so taking it would send the next ladder request back
// through the floor rung and the cost recomputation.
func TestClusterPeerPutKeepsCheckedResult(t *testing.T) {
	nodes := startTestCluster(t, 1, func(i int, cfg *Config) { cfg.ResultCacheEntries = 64 })
	nd := nodes[0]
	req := ladderRequest()
	key := resultKeyFor(t, req)
	first := mustPartition(t, nd.srv.Handler(), req)
	if first.Degradation == nil || first.Degradation.Tier != "full_dp" {
		t.Fatalf("the fixture's full tier no longer wins the ladder: %+v", first.Degradation)
	}

	resp, err := http.Get(nd.url + "/v1/peer/result/" + key)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET held result: status %d (%v)", resp.StatusCode, err)
	}
	put, _ := http.NewRequest(http.MethodPut, nd.url+"/v1/peer/result/"+key, bytes.NewReader(body))
	resp, err = http.DefaultClient.Do(put)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT of the held result: status %d, want 204", resp.StatusCode)
	}

	tierHits := nd.reg.Counter("result_cache_tier_hits_total").Value()
	certify := labeled(nd.reg, "certify_failures_total", "source", "result_hit")
	again := mustPartition(t, nd.srv.Handler(), req)
	if !again.ResultCacheHit {
		t.Fatal("the repeat after the PUT was not answered from memory")
	}
	if got := nd.reg.Counter("result_cache_tier_hits_total").Value(); got != tierHits {
		t.Fatalf("result_cache_tier_hits_total %d → %d: the PUT dropped the entry's floor verdict", tierHits, got)
	}
	if got := labeled(nd.reg, "certify_failures_total", "source", "result_hit"); got != certify {
		t.Fatalf("certify_failures_total{source=result_hit} %d → %d", certify, got)
	}
	sameAnswer(t, "repeat after PUT", again, first)
}

// A frame that validates but whose entry payload does not decode is ONE
// corrupt fetch: one peer_fetch_total row (not hit + corrupt), and the
// breaker debited exactly as for a frame-corrupt body.
func TestClusterEntryCorruptFetchCountsOnce(t *testing.T) {
	// A stub "peer" serving well-framed garbage: UnwrapWire passes
	// (checksum and versions are real), DecodeDecompEntry cannot.
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/peer/decomp/") {
			w.Write(diskstore.WrapWire([]byte("not a decomposition entry")))
			return
		}
		w.WriteHeader(http.StatusNotFound)
	}))
	defer stub.Close()

	sw := &swapHandler{}
	sw.h.Store(http.NotFoundHandler())
	ts := httptest.NewServer(sw)
	defer ts.Close()
	reg := telemetry.NewRegistry()
	s, err := New(Config{
		Registry:             reg,
		Peers:                []string{stub.URL, ts.URL},
		Self:                 ts.URL,
		PeerHealthInterval:   time.Hour, // stub has no health endpoint; stay optimistic
		PeerBreakerThreshold: 1,         // one corrupt body must open the breaker
		PeerBreakerCooldown:  time.Hour,
		ResultCacheEntries:   -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = s.Shutdown(ctx)
		cancel()
	})
	sw.h.Store(s.Handler())

	var req PartitionRequest
	for seed := int64(1); ; seed++ {
		if seed > 300 {
			t.Fatal("no seed lands on the stub peer")
		}
		req = testRequest()
		req.Seed = seed
		if s.cluster.ownerOf(decompKeyFor(t, req)) == stub.URL {
			break
		}
	}
	rec := postPartition(t, s.Handler(), req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 via local fallback", rec.Code)
	}
	if got := labeled(reg, "peer_fetch_total", "outcome", "corrupt"); got != 1 {
		t.Fatalf("peer_fetch_total{outcome=corrupt} = %d, want 1", got)
	}
	if got := labeled(reg, "peer_fetch_total", "outcome", "hit"); got != 0 {
		t.Fatalf("peer_fetch_total{outcome=hit} = %d, want 0 (an entry-corrupt fetch is not a hit)", got)
	}
	if got := s.cluster.clients[stub.URL].brk.snapshot(); got != breakerOpen {
		t.Fatalf("peer breaker state = %d after an entry-corrupt body, want open (corrupt bodies debit the breaker)", got)
	}
}

// A miss storm on one result key costs the owner ONE fetch: concurrent
// identical requests coalesce on the singleflight group before the
// network, so a slow or dying owner pays one round trip, not N.
func TestClusterResultFetchCoalesced(t *testing.T) {
	const storm = 6
	var resultGets atomic.Int64
	release := make(chan struct{})
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/peer/result/") {
			resultGets.Add(1)
			<-release // hold the fetch open until the whole storm is in flight
		}
		w.WriteHeader(http.StatusNotFound)
	}))
	defer stub.Close()

	sw := &swapHandler{}
	sw.h.Store(http.NotFoundHandler())
	ts := httptest.NewServer(sw)
	defer ts.Close()
	s, err := New(Config{
		Registry:           telemetry.NewRegistry(),
		Peers:              []string{stub.URL, ts.URL},
		Self:               ts.URL,
		PeerHealthInterval: time.Hour,
		ResultCacheEntries: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = s.Shutdown(ctx)
		cancel()
	})
	sw.h.Store(s.Handler())

	var req PartitionRequest
	for seed := int64(1); ; seed++ {
		if seed > 300 {
			t.Fatal("no seed lands on the stub peer")
		}
		req = testRequest()
		req.Seed = seed
		if s.cluster.ownerOf(resultKeyFor(t, req)) == stub.URL {
			break
		}
	}

	var wg sync.WaitGroup
	codes := make([]int, storm)
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i] = postPartition(t, s.Handler(), req).Code
		}(i)
	}
	// Release the held fetch once every storm member has had time to
	// reach the coalescing point; the leader's fetch is still open, so
	// any non-coalesced fetch would already have hit the stub.
	deadline := time.Now().Add(5 * time.Second)
	for resultGets.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the leader's fetch never reached the stub")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond)
	close(release)
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d, want 200", i, code)
		}
	}
	if got := resultGets.Load(); got != 1 {
		t.Fatalf("owner saw %d result fetches for one key's miss storm, want 1 (coalesced)", got)
	}
}

func mustGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, _, err := testRequest().Instance.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	return g
}
