package instio

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"hierpart/internal/gen"
	"hierpart/internal/graph"
	"hierpart/internal/hierarchy"
	"hierpart/internal/metrics"
)

func sampleGraph() *graph.Graph {
	rng := rand.New(rand.NewSource(7))
	g := gen.ErdosRenyi(rng, 12, 0.3, 5)
	gen.UniformDemands(rng, g, 0.1, 0.9)
	return g
}

func graphsEqual(t *testing.T, a, b *graph.Graph) {
	t.Helper()
	if a.N() != b.N() || a.M() != b.M() {
		t.Fatalf("size mismatch: %d/%d vs %d/%d", a.N(), a.M(), b.N(), b.M())
	}
	for v := 0; v < a.N(); v++ {
		da, db := a.Demand(v), b.Demand(v)
		if da != db {
			t.Fatalf("demand mismatch at %d: %v vs %v", v, da, db)
		}
	}
	ea, eb := a.Edges(), b.Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d mismatch: %+v vs %+v", i, ea[i], eb[i])
		}
	}
}

func TestGraphRoundTrip(t *testing.T) {
	g := sampleGraph()
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, g, g2)
}

func TestReadGraphErrors(t *testing.T) {
	cases := map[string]string{
		"no n":          "e 0 1 2\n",
		"bad n":         "n x\n",
		"oob demand":    "n 2\nd 5 0.5\n",
		"self loop":     "n 2\ne 0 0 1\n",
		"neg weight":    "n 2\ne 0 1 -2\n",
		"unknown":       "n 2\nz 1\n",
		"short e":       "n 2\ne 0 1\n",
		"missing all n": "# only comment\n",
	}
	for name, text := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadGraph(strings.NewReader(text)); err == nil {
				t.Fatalf("expected error for %q", text)
			}
		})
	}
	// Comments and blank lines are fine.
	g, err := ReadGraph(strings.NewReader("# hi\n\nn 2\ne 0 1 3\n"))
	if err != nil || g.M() != 1 {
		t.Fatalf("comment handling broken: %v", err)
	}
}

func TestMETISRoundTrip(t *testing.T) {
	g := sampleGraph()
	var buf bytes.Buffer
	if err := WriteMETIS(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadMETIS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, g, g2)
}

func TestReadMETISPlainFormat(t *testing.T) {
	// Standard unweighted METIS: 3 vertices in a path.
	text := "3 2\n2\n1 3\n2\n"
	g, err := ReadMETIS(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 || g.Weight(0, 1) != 1 || g.Weight(1, 2) != 1 {
		t.Fatalf("parsed graph wrong: N=%d M=%d", g.N(), g.M())
	}
}

func TestReadMETISErrors(t *testing.T) {
	for name, text := range map[string]string{
		"empty":        "",
		"short header": "3\n",
		"truncated":    "3 2 011\n0.5 2 1\n",
		"bad neighbor": "2 1 001\n9 1\n1 1\n",
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadMETIS(strings.NewReader(text)); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestInstanceRoundTrip(t *testing.T) {
	g := sampleGraph()
	h := hierarchy.MustNew([]int{2, 3}, []float64{9, 2, 0})
	var buf bytes.Buffer
	if err := WriteInstance(&buf, g, h); err != nil {
		t.Fatal(err)
	}
	g2, h2, err := ReadInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, g, g2)
	if h2.Height() != 2 || h2.Deg(0) != 2 || h2.Deg(1) != 3 || h2.CM(0) != 9 {
		t.Fatalf("hierarchy mismatch: %v", h2)
	}
}

func TestReadInstanceErrors(t *testing.T) {
	for name, text := range map[string]string{
		"garbage":    "{",
		"bad h":      `{"hierarchy":{"deg":[0],"cm":[1,0]},"n":1}`,
		"bad edge":   `{"hierarchy":{"deg":[2],"cm":[1,0]},"n":2,"edges":[[0,5,1]]}`,
		"neg demand": `{"hierarchy":{"deg":[2],"cm":[1,0]},"n":1,"demands":[-1]}`,
	} {
		t.Run(name, func(t *testing.T) {
			if _, _, err := ReadInstance(strings.NewReader(text)); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestWriteAssignment(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAssignment(&buf, metrics.Assignment{1, 0, 2}, 12.5); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{`"assignment"`, `"cost"`, "12.5"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("output %q missing %q", out, frag)
		}
	}
}

// Materialize builds one graph per edge set: listing the same edges in
// another order, endpoints flipped, yields the same neighbour order
// (which every solver walks) and the same accumulated weights.
func TestMaterializeIgnoresEdgeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inst := Instance{N: 12, Hierarchy: HierarchySpec{Deg: []int{2, 2}, CM: []float64{4, 1, 0}}}
	for v := 0; v < inst.N; v++ {
		inst.Demands = append(inst.Demands, 0.25)
	}
	for u := 0; u < inst.N; u++ {
		for v := u + 1; v < inst.N; v++ {
			if rng.Intn(3) == 0 {
				inst.Edges = append(inst.Edges, [3]float64{float64(u), float64(v), float64(1 + rng.Intn(9))})
			}
		}
	}
	// A repeated edge accumulates; its parts must sum in one order.
	inst.Edges = append(inst.Edges, [3]float64{0, 1, 0.1}, [3]float64{1, 0, 0.2}, [3]float64{0, 1, 0.3})

	neighbours := func(g *graph.Graph) [][]int {
		out := make([][]int, g.N())
		for v := range out {
			g.Neighbors(v, func(u int, _ float64) { out[v] = append(out[v], u) })
		}
		return out
	}
	want, _, err := inst.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		shuffled := inst
		shuffled.Edges = append([][3]float64(nil), inst.Edges...)
		rng.Shuffle(len(shuffled.Edges), func(i, j int) {
			shuffled.Edges[i], shuffled.Edges[j] = shuffled.Edges[j], shuffled.Edges[i]
		})
		for i, e := range shuffled.Edges {
			if rng.Intn(2) == 0 {
				shuffled.Edges[i] = [3]float64{e[1], e[0], e[2]}
			}
		}
		got, _, err := shuffled.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(neighbours(got), neighbours(want)) {
			t.Fatalf("trial %d: neighbour order depends on the edge list's order", trial)
		}
		if !reflect.DeepEqual(got.Edges(), want.Edges()) {
			t.Fatalf("trial %d: edge weights depend on the edge list's order", trial)
		}
	}
}
