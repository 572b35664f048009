package cache

import (
	"fmt"
	"sync"
	"testing"

	"hierpart/internal/gen"
	"hierpart/internal/graph"
	"hierpart/internal/hierarchy"
	"hierpart/internal/treedecomp"
)

func TestLRUHitMissPromotion(t *testing.T) {
	c := New(2)
	c.Add("a", 1)
	c.Add("b", 2)
	if v, ok := c.Get("a"); !ok || v.(int) != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	c.Add("c", 3) // evicts b: a was promoted by the Get above
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should have survived (recently used)")
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 || s.Evictions != 1 || s.Len != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if want := 2.0 / 3.0; s.HitRatio != want {
		t.Fatalf("hit ratio = %v, want %v", s.HitRatio, want)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := New(3)
	for i := 0; i < 3; i++ {
		c.Add(fmt.Sprint(i), i)
	}
	c.Get("0") // 1 is now coldest
	c.Add("3", 3)
	if _, ok := c.Get("1"); ok {
		t.Fatal("1 should have been evicted (coldest)")
	}
	for _, k := range []string{"0", "2", "3"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s should be present", k)
		}
	}
}

func TestLRUAddRefreshesExisting(t *testing.T) {
	c := New(2)
	c.Add("a", 1)
	c.Add("b", 2)
	c.Add("a", 10) // refresh, not insert: b must survive the next Add
	c.Add("c", 3)
	if v, ok := c.Get("a"); !ok || v.(int) != 10 {
		t.Fatalf("Get(a) = %v, %v, want 10", v, ok)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b was coldest and should have been evicted")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
}

// CompareAndSwap changes an entry only while it holds the expected
// value, removes it on a nil value, and leaves the accounting alone.
func TestLRUCompareAndSwap(t *testing.T) {
	c := New(2)
	c.Add("a", 1)
	if c.CompareAndSwap("a", 2, 3) {
		t.Fatal("swapped an entry that no longer holds the expected value")
	}
	if !c.CompareAndSwap("a", 1, 3) {
		t.Fatal("swap of the expected value failed")
	}
	if c.CompareAndSwap("missing", nil, 1) || c.Len() != 1 {
		t.Fatal("CompareAndSwap inserted a missing key")
	}
	if !c.CompareAndSwap("a", 3, nil) || c.Len() != 0 {
		t.Fatal("a nil value did not remove the entry")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 || st.Evictions != 0 {
		t.Fatalf("stats = %+v, want untouched", st)
	}
}

func TestLRUMinimumCapacity(t *testing.T) {
	c := New(0)
	c.Add("a", 1)
	c.Add("b", 2)
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1 (capacity clamps to 1)", c.Len())
	}
}

func TestLRUConcurrent(t *testing.T) {
	c := New(16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprint((w + i) % 32)
				c.Add(k, i)
				c.Get(k)
			}
		}()
	}
	wg.Wait()
	if c.Len() > 16 {
		t.Fatalf("len = %d exceeds capacity", c.Len())
	}
}

func TestDecompKeyCanonical(t *testing.T) {
	build := func() *graph.Graph {
		g := graph.New(4)
		g.SetDemand(0, 0.5)
		g.AddEdge(0, 1, 2)
		g.AddEdge(2, 3, 1)
		return g
	}
	// Same graph built with edges in a different insertion order.
	reordered := graph.New(4)
	reordered.SetDemand(0, 0.5)
	reordered.AddEdge(3, 2, 1)
	reordered.AddEdge(1, 0, 2)

	opt := treedecomp.Options{Trees: 4, Seed: 1}
	base := DecompKey(build(), opt)
	if DecompKey(reordered, opt) != base {
		t.Fatal("key must be insertion-order independent")
	}
	// Workers must not fragment the cache (same distribution).
	if DecompKey(build(), treedecomp.Options{Trees: 4, Seed: 1, Workers: 8}) != base {
		t.Fatal("key must ignore Workers")
	}
	// FMPasses 0 means 4 — the default and the explicit value collide.
	if DecompKey(build(), treedecomp.Options{Trees: 4, Seed: 1, FMPasses: 4}) != base {
		t.Fatal("key must treat FMPasses 0 and 4 as equal (solver default)")
	}

	// Every distribution-shaping change must change the key.
	diff := map[string]string{}
	record := func(name, key string) {
		if key == base {
			t.Fatalf("%s: key should differ from base", name)
		}
		if prev, ok := diff[key]; ok {
			t.Fatalf("key collision between %s and %s", name, prev)
		}
		diff[key] = name
	}
	record("seed", DecompKey(build(), treedecomp.Options{Trees: 4, Seed: 2}))
	record("trees", DecompKey(build(), treedecomp.Options{Trees: 5, Seed: 1}))
	record("fmpasses", DecompKey(build(), treedecomp.Options{Trees: 4, Seed: 1, FMPasses: 2}))
	record("flowrefine", DecompKey(build(), treedecomp.Options{Trees: 4, Seed: 1, FlowRefine: true}))
	record("strategy", DecompKey(build(), treedecomp.Options{Trees: 4, Seed: 1, Strategy: treedecomp.FRT}))

	gw := build()
	gw.AddEdge(1, 2, 0.5)
	record("extra edge", DecompKey(gw, opt))
	gd := build()
	gd.SetDemand(3, 0.25)
	record("demand change", DecompKey(gd, opt))
}

func TestDecompKeyStableAcrossGenerators(t *testing.T) {
	a := gen.Grid(6, 6, 1)
	b := gen.Grid(6, 6, 1)
	if DecompKey(a, treedecomp.Options{Trees: 2}) != DecompKey(b, treedecomp.Options{Trees: 2}) {
		t.Fatal("identical graphs must key identically")
	}
}

// TestResultKeyInvalidation pins the result-cache contract (satellite:
// invalidation tests): every request field that changes the returned
// placement must change the key, and fields that provably do not
// (Workers) must not, so warm traffic keeps hitting across worker-count
// changes.
func TestResultKeyInvalidation(t *testing.T) {
	g := gen.Grid(4, 4, 2)
	gen.EqualDemands(g, 0.3)
	h := hierarchy.MustNew([]int{2, 2}, []float64{9, 2, 0})
	opt := treedecomp.Options{Trees: 3, Seed: 7}
	base := ResultKey(g, h, opt, 0.5, 0)

	if got := ResultKey(g, h, opt, 0.5, 0); got != base {
		t.Fatal("identical inputs must produce identical keys")
	}

	// Workers shapes neither the decomposition distribution nor the DP
	// result, so it is not part of the key at all: two requests differing
	// only in Workers share one cache slot by construction.
	wOpt := opt
	wOpt.Workers = 8
	if got := ResultKey(g, h, wOpt, 0.5, 0); got != base {
		t.Fatal("Workers change must still hit the cached result")
	}

	miss := map[string]string{}
	miss["eps"] = ResultKey(g, h, opt, 0.25, 0)
	miss["max_states"] = ResultKey(g, h, opt, 0.5, 100000)
	tOpt := opt
	tOpt.Trees = 4
	miss["trees"] = ResultKey(g, h, tOpt, 0.5, 0)
	sOpt := opt
	sOpt.Seed = 8
	miss["seed"] = ResultKey(g, h, sOpt, 0.5, 0)
	stOpt := opt
	stOpt.Strategy = treedecomp.MinCutSplit
	miss["strategy"] = ResultKey(g, h, stOpt, 0.5, 0)
	miss["hierarchy_cm"] = ResultKey(g, hierarchy.MustNew([]int{2, 2}, []float64{9, 3, 0}), opt, 0.5, 0)
	miss["hierarchy_deg"] = ResultKey(g, hierarchy.MustNew([]int{4, 1}, []float64{9, 2, 0}), opt, 0.5, 0)

	g2 := gen.Grid(4, 4, 2)
	gen.EqualDemands(g2, 0.35)
	miss["demands"] = ResultKey(g2, h, opt, 0.5, 0)

	seen := map[string]string{base: "base"}
	for field, k := range miss {
		if prev, dup := seen[k]; dup {
			t.Fatalf("changing %s collided with %s", field, prev)
		}
		seen[k] = field
	}
}

// TestResultKeyDisjointFromDecompKey: the two key spaces are
// domain-separated — a result key can never alias a decomposition key
// even for the same request.
func TestResultKeyDisjointFromDecompKey(t *testing.T) {
	g := gen.Grid(3, 3, 2)
	gen.EqualDemands(g, 0.3)
	h := hierarchy.FlatKWay(4)
	opt := treedecomp.Options{Trees: 2, Seed: 1}
	if ResultKey(g, h, opt, 0.5, 0) == DecompKey(g, opt) {
		t.Fatal("result key aliases decomposition key")
	}
}
