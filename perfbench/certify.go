package main

import (
	"fmt"
	"math"

	"hierpart/internal/graph"
	"hierpart/internal/hierarchy"
	"hierpart/internal/metrics"
)

// costTol is the relative tolerance between a served cost and the
// client's recomputation. The daemon may sum the same edge costs in a
// different order (it solves in canonical vertex order), so the two
// can differ in the last bits; any real error is far larger.
const costTol = 1e-9

// certify checks a served placement against the client's own copy of
// the graph: one leaf per vertex, every leaf below k, the cost equal
// to metrics.CostLCA recomputed here, and the per-level violation
// equal to metrics.Violation recomputed here.
func certify(g *graph.Graph, H *hierarchy.Hierarchy, assignment []int, cost float64, violation []float64) error {
	if len(assignment) != g.N() {
		return fmt.Errorf("assignment has %d entries for %d vertices", len(assignment), g.N())
	}
	for v, l := range assignment {
		if l < 0 || l >= H.Leaves() {
			return fmt.Errorf("vertex %d on leaf %d, want [0,%d)", v, l, H.Leaves())
		}
	}
	a := metrics.Assignment(assignment)
	if want := metrics.CostLCA(g, H, a); !near(cost, want) {
		return fmt.Errorf("cost %v, recomputed %v", cost, want)
	}
	want := metrics.Violation(g, H, a)
	if len(violation) != len(want) {
		return fmt.Errorf("violation has %d levels, want %d", len(violation), len(want))
	}
	for j := range want {
		if !near(violation[j], want[j]) {
			return fmt.Errorf("violation[%d] %v, recomputed %v", j, violation[j], want[j])
		}
	}
	return nil
}

func near(a, b float64) bool {
	return math.Abs(a-b) <= costTol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
