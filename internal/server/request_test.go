package server

import (
	"net/http"
	"testing"
	"time"

	"hierpart/internal/faultinject"
)

// The cache keys a request derives are the golden keys pinned in
// internal/cache (TestCacheKeysGolden) for the same instance: with and
// without -canon, the decomposition LRU and the result cache hold
// exactly those keys after one solve of testRequest. Snapshots, hints
// and the peer wire all carry these keys, so a state dir or a
// mixed-version cluster keeps finding its entries.
func TestRequestKeysMatchGolden(t *testing.T) {
	for _, c := range []struct {
		canon      bool
		dkey, rkey string
	}{
		{false,
			"d62b14fb2c275576742c190bd70941ebe561aac40350280fc15380d7134b5d9d",
			"f01be1217829ee7abd017cf461aa6304d5d76564f12323d0cbe06ffba5a1c61a"},
		{true,
			"b3cd95d237f9338bfc657d3117c825b4e7f5f93c39a405d6d65499e860d9243a",
			"3ae026e55c6c83331ceb5a8cd531b67412c0719d526dae335a241b5faa197a99"},
	} {
		s := newTestServer(t, Config{Canon: c.canon})
		if rec := postPartition(t, s.Handler(), testRequest()); rec.Code != http.StatusOK {
			t.Fatalf("canon=%v: status %d, body %s", c.canon, rec.Code, rec.Body.String())
		}
		if keys := s.dec.Keys(); len(keys) != 1 || keys[0] != c.dkey {
			t.Errorf("canon=%v: decomposition keys %v, want [%s]", c.canon, keys, c.dkey)
		}
		if keys := s.results.Keys(); len(keys) != 1 || keys[0] != c.rkey {
			t.Errorf("canon=%v: result keys %v, want [%s]", c.canon, keys, c.rkey)
		}
	}
}

// A session solve that misses its deadline mid-solve publishes the
// AIMD limiter's new ceiling, exactly as a one-shot solve does: both
// endpoints release their slot through the same admission stage.
func TestSessionSolvePublishesLimiterCeiling(t *testing.T) {
	s := newTestServer(t, Config{Adaptive: true, MaxConcurrent: 4})
	h := s.Handler()
	view := createSession(t, h, sessionCreateRequest())

	// Every DP table waits longer than the request's budget, so the
	// solve is cut by its deadline after it took its slot.
	restore := faultinject.Activate(faultinject.New(1).
		On(faultinject.HgptTable, faultinject.Fault{Prob: 1, Delay: time.Second}))
	rec := doJSON(t, h, http.MethodPost, "/v1/graphs/"+view.ID+"/partition", GraphPartitionRequest{TimeoutMS: 50})
	restore()
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", rec.Code, rec.Body.String())
	}
	ceiling, _, _ := s.lim.snapshot()
	if ceiling >= 4 {
		t.Fatalf("limiter ceiling %d after a deadline miss, want it halved below 4", ceiling)
	}
	if got := s.reg.Gauge("limiter_ceiling").Value(); got != int64(ceiling) {
		t.Fatalf("limiter_ceiling gauge = %d, limiter ceiling = %d", got, ceiling)
	}
}
