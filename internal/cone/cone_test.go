package cone

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cgraph"
	"repro/internal/firrtl"
)

func mustGraph(t *testing.T, src string) *cgraph.Graph {
	t.Helper()
	c, err := firrtl.Parse(src)
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

// Two independent counters: each sink's cone is disjoint, so clusters are
// clean and no vertex belongs to two cones.
func TestIndependentCones(t *testing.T) {
	g := mustGraph(t, `
circuit C {
  module C {
    output o1 : UInt<8>
    output o2 : UInt<8>
    reg r1 : UInt<8> init 0
    reg r2 : UInt<8> init 0
    node n1 = tail(add(r1, UInt<8>(1)), 1)
    node n2 = tail(add(r2, UInt<8>(2)), 1)
    r1 <= n1
    r2 <= n2
    o1 <= r1
    o2 <= r2
  }
}
`)
	a, err := Analyze(g)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	// 4 sinks: r1$next, r2$next, o1, o2.
	if len(a.Sinks) != 4 {
		t.Fatalf("want 4 sinks, got %d", len(a.Sinks))
	}
	// Every non-source vertex belongs to exactly one cone here (o1 reads
	// r1 directly from the source, so no overlap with r1$next's cone).
	for v := range g.Vs {
		if g.Vs[v].Kind.IsSource() {
			if a.ClusterOf[v] != NoCluster {
				t.Errorf("source %s assigned to cluster", g.Vs[v].Name)
			}
			continue
		}
		if len(a.ConeSets[v]) != 1 {
			t.Errorf("vertex %s in %d cones, want 1", g.Vs[v].Name, len(a.ConeSets[v]))
		}
	}
}

// A shared subexpression feeding two sinks must form its own (non-sink)
// cluster with both cones.
func TestSharedClusterHasBothCones(t *testing.T) {
	g := mustGraph(t, `
circuit C {
  module C {
    input  i : UInt<8>
    output o1 : UInt<8>
    output o2 : UInt<8>
    node shared = not(i)
    node a = xor(shared, UInt<8>(1))
    node b = xor(shared, UInt<8>(2))
    o1 <= a
    o2 <= b
  }
}
`)
	a, err := Analyze(g)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	sv, ok := g.VertexByName("shared")
	if !ok {
		t.Fatalf("vertex shared missing")
	}
	if got := len(a.ConeSets[sv]); got != 2 {
		t.Fatalf("shared in %d cones, want 2", got)
	}
	cl := a.Clusters[a.ClusterOf[sv]]
	if cl.Sink {
		t.Fatalf("shared cluster should not be a sink cluster")
	}
	if len(cl.Cones) != 2 {
		t.Fatalf("shared cluster cones = %v", cl.Cones)
	}
}

// Invariants on a denser circuit: clusters partition the non-source
// vertices; sink clusters correspond 1:1 to sinks; every member of a
// cluster has the cluster's cone set.
func TestClusterInvariants(t *testing.T) {
	g := mustGraph(t, `
circuit C {
  module C {
    input  i : UInt<8>
    output o : UInt<8>
    reg r1 : UInt<8> init 0
    reg r2 : UInt<8> init 0
    reg r3 : UInt<8> init 0
    node m1 = xor(r1, i)
    node m2 = and(m1, r2)
    node m3 = or(m2, r3)
    node m4 = tail(add(m1, m3), 1)
    r1 <= m4
    r2 <= m3
    r3 <= tail(add(m2, UInt<8>(1)), 1)
    o <= m4
  }
}
`)
	a, err := Analyze(g)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	seen := map[cgraph.VID]bool{}
	for _, cl := range a.Clusters {
		if len(cl.Members) == 0 {
			t.Errorf("empty cluster %d", cl.ID)
		}
		for _, v := range cl.Members {
			if seen[v] {
				t.Errorf("vertex %d in two clusters", v)
			}
			seen[v] = true
			cs := a.ConeSets[v]
			if len(cs) != len(cl.Cones) {
				t.Errorf("member cone set mismatch")
			}
		}
	}
	for v := range g.Vs {
		if g.Vs[v].Kind.IsSource() {
			continue
		}
		if !seen[cgraph.VID(v)] {
			t.Errorf("vertex %s not in any cluster", g.Vs[v].Name)
		}
	}
	// Sink clusters: exactly one per sink, Sink flag set.
	if len(a.SinkCluster) != len(a.Sinks) {
		t.Fatalf("SinkCluster size mismatch")
	}
	count := 0
	for _, cl := range a.Clusters {
		if cl.Sink {
			count++
		}
	}
	if count != len(a.Sinks) {
		t.Fatalf("%d sink clusters for %d sinks", count, len(a.Sinks))
	}
}

// Cone contents: the cone of a register-write sink contains exactly the
// combinational ancestors, not unrelated logic.
func TestConeMembership(t *testing.T) {
	g := mustGraph(t, `
circuit C {
  module C {
    input  i1 : UInt<4>
    input  i2 : UInt<4>
    output o1 : UInt<4>
    output o2 : UInt<4>
    node a = not(i1)
    node b = not(i2)
    o1 <= a
    o2 <= b
  }
}
`)
	a, err := Analyze(g)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	av, _ := g.VertexByName("a")
	bv, _ := g.VertexByName("b")
	// a and b are in different, single cones.
	if len(a.ConeSets[av]) != 1 || len(a.ConeSets[bv]) != 1 {
		t.Fatalf("expected singleton cones")
	}
	if a.ConeSets[av][0] == a.ConeSets[bv][0] {
		t.Fatalf("independent logic sharing a cone")
	}
}

// genWideCircuit emits a synthetic circuit with many interleaved registers
// so the analysis has enough cones to spread across workers.
func genWideCircuit(regs int) string {
	var b strings.Builder
	b.WriteString("circuit G {\n  module G {\n    input i : UInt<8>\n    output o : UInt<8>\n")
	for r := 0; r < regs; r++ {
		fmt.Fprintf(&b, "    reg r%d : UInt<8> init 0\n", r)
	}
	for r := 0; r < regs; r++ {
		fmt.Fprintf(&b, "    node n%d = tail(add(r%d, xor(r%d, i)), 1)\n", r, r, (r+7)%regs)
	}
	for r := 0; r < regs; r++ {
		fmt.Fprintf(&b, "    r%d <= n%d\n", r, (r+3)%regs)
	}
	b.WriteString("    o <= n0\n  }\n}\n")
	return b.String()
}

// The analysis must be bit-identical no matter how many workers traverse
// the cones, that is for every GOMAXPROCS.
func TestAnalyzeWorkerEquivalence(t *testing.T) {
	g := mustGraph(t, genWideCircuit(64))
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	base, err := Analyze(g)
	if err != nil {
		t.Fatalf("serial analyze: %v", err)
	}
	for _, procs := range []int{2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		got, err := Analyze(g)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("GOMAXPROCS=%d: analysis differs from serial result", procs)
		}
	}
}
