package cache

import (
	"testing"

	"hierpart/internal/canon"
	"hierpart/internal/graph"
	"hierpart/internal/hierarchy"
	"hierpart/internal/treedecomp"
)

// Golden cache keys. Every key a daemon has written — decomposition
// snapshots and hints under -state-dir, entries on the peer wire of a
// mixed-version cluster — must keep its value across refactors, so the
// four key functions are pinned here on one fixed instance. A change to
// any literal below is a key-family change: old snapshots stop being
// found and mixed-version peers stop sharing entries.
const (
	goldenDecompKey      = "d62b14fb2c275576742c190bd70941ebe561aac40350280fc15380d7134b5d9d"
	goldenDecompKeyCanon = "b3cd95d237f9338bfc657d3117c825b4e7f5f93c39a405d6d65499e860d9243a"
	goldenResultKey      = "f01be1217829ee7abd017cf461aa6304d5d76564f12323d0cbe06ffba5a1c61a"
	goldenResultKeyCanon = "3ae026e55c6c83331ceb5a8cd531b67412c0719d526dae335a241b5faa197a99"
)

// goldenKeyInstance is the fixed instance the golden keys hash: two
// chatty 4-cliques joined by one weak edge on a 2×4 hierarchy, built
// with Trees 2 and Seed 1, Eps 0 and a 50M state cap (hgpd's default).
// The server package's testRequest is the same instance.
func goldenKeyInstance() (*graph.Graph, *hierarchy.Hierarchy, treedecomp.Options, float64, int) {
	g := graph.New(8)
	for v := 0; v < 8; v++ {
		g.SetDemand(v, 0.5)
	}
	for b := 0; b < 8; b += 4 {
		for i := b; i < b+4; i++ {
			for j := i + 1; j < b+4; j++ {
				g.AddEdge(i, j, 10)
			}
		}
	}
	g.AddEdge(0, 4, 1)
	H := hierarchy.MustNew([]int{2, 4}, []float64{8, 2, 0})
	return g, H, treedecomp.Options{Trees: 2, Seed: 1}, 0, 50_000_000
}

func TestCacheKeysGolden(t *testing.T) {
	g, H, opt, eps, maxStates := goldenKeyInstance()
	f, ok := canon.Canonicalize(g)
	if !ok {
		t.Fatal("the golden instance refused canonicalization")
	}
	for _, c := range []struct{ name, got, want string }{
		{"DecompKey", DecompKey(g, opt), goldenDecompKey},
		{"DecompKeyCanon", DecompKeyCanon(f.Fingerprint, opt), goldenDecompKeyCanon},
		{"ResultKey", ResultKey(g, H, opt, eps, maxStates), goldenResultKey},
		{"ResultKeyCanon", ResultKeyCanon(f.Fingerprint, H, opt, eps, maxStates), goldenResultKeyCanon},
	} {
		if c.got != c.want {
			t.Errorf("%s = %s, want %s", c.name, c.got, c.want)
		}
	}
}
