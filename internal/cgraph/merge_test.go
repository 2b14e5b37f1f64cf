package cgraph_test

import (
	"runtime"
	"testing"

	"repro/internal/cgraph"
	"repro/internal/designs"
	"repro/internal/firrtl"
)

// build parses, checks, flattens, lowers and builds one module body.
func build(t *testing.T, body string) *cgraph.Graph {
	t.Helper()
	c, err := firrtl.Parse("circuit C {\n  module C {\n" + body + "\n  }\n}\n")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := firrtl.Check(c); err != nil {
		t.Fatalf("check: %v", err)
	}
	fc, err := firrtl.Flatten(c)
	if err != nil {
		t.Fatalf("flatten: %v", err)
	}
	lc, err := firrtl.Lower(fc)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	g, err := cgraph.Build(lc)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return g
}

// checkAdjacency asserts Preds, Succs and Topo agree after a merge: every
// edge runs forward in Topo, and Topo lists every vertex once.
func checkAdjacency(t *testing.T, g *cgraph.Graph) {
	t.Helper()
	if len(g.Topo) != len(g.Vs) || len(g.Preds) != len(g.Vs) || len(g.Succs) != len(g.Vs) {
		t.Fatalf("topo/adjacency sized %d/%d/%d for %d vertices", len(g.Topo), len(g.Preds), len(g.Succs), len(g.Vs))
	}
	pos := make([]int, len(g.Vs))
	for i := range pos {
		pos[i] = -1
	}
	for i, v := range g.Topo {
		if pos[v] >= 0 {
			t.Fatalf("vertex %d twice in Topo", v)
		}
		pos[v] = i
	}
	for v := range g.Vs {
		for _, s := range g.Succs[v] {
			if pos[v] >= pos[s] {
				t.Fatalf("edge %s -> %s runs backwards in Topo", g.Vs[v].Name, g.Vs[s].Name)
			}
		}
	}
}

// Vertices that differ in op, constants or literal width, and memory read
// ports of any shape, must survive Merge.
func TestMergeKeepsDistinct(t *testing.T) {
	cases := map[string]struct {
		body  string
		names []string
	}{
		"asSInt vs asUInt": {`
    input  i : UInt<8>
    output a : SInt<8>
    output b : UInt<8>
    node x = asSInt(i)
    node y = asUInt(i)
    a <= x
    b <= y`, []string{"x", "y"}},
		"bits with different consts": {`
    input  i : UInt<8>
    output a : UInt<4>
    output b : UInt<4>
    node x = bits(i, 3, 0)
    node y = bits(i, 7, 4)
    a <= x
    b <= y`, []string{"x", "y"}},
		"equal literals of different width": {`
    input  i : UInt<8>
    output a : UInt<9>
    output b : UInt<9>
    output c : UInt<4>
    output d : UInt<8>
    node x = add(i, UInt<4>(3))
    node y = add(i, UInt<8>(3))
    node k4 = UInt<4>(3)
    node k8 = UInt<8>(3)
    a <= x
    b <= y
    c <= k4
    d <= k8`, []string{"x", "y", "k4", "k8"}},
		"two memory reads of one address": {`
    input  i : UInt<4>
    input  v : UInt<8>
    output a : UInt<8>
    output b : UInt<8>
    mem m : UInt<8>[16]
    node x = read(m, i)
    node y = read(m, i)
    write(m, i, v, UInt<1>(1))
    a <= x
    b <= y`, []string{"x", "y"}},
	}
	for name, tc := range cases {
		g := build(t, tc.body)
		before := g.Stats()
		if n := g.Merge(); n != 0 || g.Merged != 0 {
			t.Errorf("%s: Merge folded %d vertices (Merged %d), want 0", name, n, g.Merged)
		}
		if got := g.Stats(); got != before {
			t.Errorf("%s: stats moved %+v -> %+v", name, before, got)
		}
		seen := map[cgraph.VID]string{}
		for _, n := range tc.names {
			v, ok := g.VertexByName(n)
			if !ok {
				t.Fatalf("%s: %s missing", name, n)
			}
			if other, dup := seen[v]; dup {
				t.Errorf("%s: %s and %s share vertex %d", name, other, n, v)
			}
			seen[v] = n
		}
		for _, mi := range g.Mems {
			if len(mi.Reads) != 2 {
				t.Errorf("%s: memory %s lists %d read ports, want 2", name, mi.Name, len(mi.Reads))
			}
		}
	}
}

// A duplicate of a duplicate merges transitively in one walk, and every
// merged name resolves to its representative.
func TestMergeTransitive(t *testing.T) {
	g := build(t, `
    input  i : UInt<8>
    output o1 : UInt<8>
    output o2 : UInt<8>
    output o3 : UInt<8>
    node a1 = not(i)
    node a2 = not(i)
    node b1 = xor(a1, i)
    node b2 = xor(a2, i)
    node c = and(b2, UInt<8>(15))
    node d = and(b1, UInt<8>(15))
    o1 <= b1
    o2 <= c
    o3 <= d`)
	before := g.Stats()
	if n := g.Merge(); n != 3 || g.Merged != 3 {
		t.Fatalf("Merge = %d (Merged %d), want 3", n, g.Merged)
	}
	after := g.Stats()
	if after.IRNodes+after.Merged != before.IRNodes || after.Merged != 3 {
		t.Errorf("IRNodes %d + Merged %d, want %d", after.IRNodes, after.Merged, before.IRNodes)
	}
	// Whichever of a pair Topo reaches first is the representative.
	for _, pair := range [][2]string{{"a2", "a1"}, {"b2", "b1"}, {"d", "c"}} {
		x, ok1 := g.VertexByName(pair[0])
		y, ok2 := g.VertexByName(pair[1])
		if !ok1 || !ok2 || x != y {
			t.Errorf("%s resolves to %d (%t), want %s's vertex %d", pair[0], x, ok1, pair[1], y)
		}
		if n := g.Vs[x].Name; n != pair[0] && n != pair[1] {
			t.Errorf("representative of %v is named %q", pair, n)
		}
	}
	// o2 and o3 read the one surviving and-gate.
	var drv []cgraph.VID
	for _, o := range g.Outputs {
		drv = append(drv, g.Vs[o].Args[0].V)
	}
	if drv[1] != drv[2] {
		t.Errorf("outputs o2, o3 read %d and %d, want one vertex", drv[1], drv[2])
	}
	checkAdjacency(t, g)
	if g.Merge() != 0 || g.Merged != 3 {
		t.Errorf("second Merge found more work (Merged %d)", g.Merged)
	}
}

// BenchmarkMerge times Merge on MegaBOOM-4C, the largest bundled design.
func BenchmarkMerge(b *testing.B) {
	cfg := designs.Config{Kind: designs.MegaBoom, Cores: 4, Scale: 1}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g, err := designs.Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		runtime.GC() // charge Merge for its own garbage, not Build's
		b.StartTimer()
		g.Merge()
	}
}
