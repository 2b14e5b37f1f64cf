package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cgraph"
	"repro/internal/costmodel"
	"repro/internal/firrtl"
	"repro/internal/sim"
	"repro/internal/verify"
)

// verifyCompiled compiles a partitioning, dereplication groups included,
// and returns the static verifier's verdict on the program: the one proof
// of closure, unique sink ownership, coverage and topological order.
func verifyCompiled(g *cgraph.Graph, res *Result) error {
	specs := make([]sim.PartSpec, len(res.Parts))
	for p := range res.Parts {
		specs[p] = sim.PartSpec{Vertices: res.Parts[p].Vertices, Sinks: res.Parts[p].Sinks, Dereps: res.DerepsOf(p)}
	}
	prog, err := sim.Compile(g, specs, sim.Config{})
	if err != nil {
		return err
	}
	return verify.Program(prog, verify.Options{Graph: g, Parts: specs}).Err()
}

func mustGraph(t testing.TB, src string) *cgraph.Graph {
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

// randomPipelineSrc generates a register-dense synthetic circuit with both
// shared and private logic, exercising replication.
func randomPipelineSrc(regs int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	sb.WriteString("circuit R {\n  module R {\n")
	sb.WriteString("    input i : UInt<16>\n")
	for r := 0; r < regs; r++ {
		fmt.Fprintf(&sb, "    reg r%d : UInt<16> init %d\n", r, r)
	}
	// Shared node mixing a few registers.
	sb.WriteString("    node shared = xor(r0, r1)\n")
	for r := 0; r < regs; r++ {
		a := rng.Intn(regs)
		switch rng.Intn(3) {
		case 0:
			fmt.Fprintf(&sb, "    node n%d = tail(add(r%d, shared), 1)\n", r, a)
		case 1:
			fmt.Fprintf(&sb, "    node n%d = xor(r%d, i)\n", r, a)
		case 2:
			fmt.Fprintf(&sb, "    node n%d = and(r%d, shared)\n", r, a)
		}
		fmt.Fprintf(&sb, "    r%d <= n%d\n", r, r)
	}
	sb.WriteString("    output o : UInt<16>\n    o <= shared\n")
	sb.WriteString("  }\n}\n")
	return sb.String()
}

func TestPartitionInvariantsSmall(t *testing.T) {
	g := mustGraph(t, randomPipelineSrc(24, 1))
	for _, k := range []int{1, 2, 3, 4, 6} {
		res, err := Partition(g, Options{K: k, Seed: 42, Model: costmodel.Default()})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if err := verifyCompiled(g, res); err != nil {
			t.Fatalf("k=%d: verify: %v", k, err)
		}
		if res.ReplicationCost < 0 {
			t.Fatalf("k=%d: negative replication cost %f", k, res.ReplicationCost)
		}
		if k == 1 {
			if res.ReplicationCost != 0 || res.ReplicatedVertices != 0 {
				t.Fatalf("k=1 must have zero replication, got %f/%d",
					res.ReplicationCost, res.ReplicatedVertices)
			}
		}
	}
}

// Independent sub-circuits must partition with zero replication.
func TestIndependentBlocksZeroReplication(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("circuit B {\n  module B {\n")
	for b := 0; b < 4; b++ {
		fmt.Fprintf(&sb, "    reg a%d : UInt<32> init %d\n", b, b)
		fmt.Fprintf(&sb, "    node x%d = tail(add(a%d, UInt<32>(7)), 1)\n", b, b)
		fmt.Fprintf(&sb, "    node y%d = xor(x%d, a%d)\n", b, b, b)
		fmt.Fprintf(&sb, "    a%d <= y%d\n", b, b)
		fmt.Fprintf(&sb, "    output o%d : UInt<32>\n    o%d <= y%d\n", b, b, b)
	}
	sb.WriteString("  }\n}\n")
	g := mustGraph(t, sb.String())
	res, err := Partition(g, Options{K: 4, Seed: 3, Epsilon: 0.2, Model: costmodel.Default()})
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyCompiled(g, res); err != nil {
		t.Fatal(err)
	}
	if res.ReplicationCost != 0 {
		t.Fatalf("independent blocks should need no replication, got %.2f%%",
			100*res.ReplicationCost)
	}
	// Each partition should own one block's sinks.
	for p := range res.Parts {
		if len(res.Parts[p].Sinks) == 0 {
			t.Fatalf("partition %d owns no sinks", p)
		}
	}
}

// A heavily shared cluster must be replicated into every partition that
// needs it, and the cut cost must match the replication accounting.
func TestSharedLogicReplicated(t *testing.T) {
	src := `
circuit S {
  module S {
    input i : UInt<32>
    reg s : UInt<32> init 1
    node hub = xor(s, i)
    reg p0 : UInt<32> init 0
    reg p1 : UInt<32> init 0
    node w0 = tail(add(hub, p0), 1)
    node w1 = xor(hub, p1)
    p0 <= w0
    p1 <= w1
    s <= xor(w0, w1)
    output o : UInt<32>
    o <= s
  }
}
`
	g := mustGraph(t, src)
	res, err := Partition(g, Options{K: 2, Seed: 1, Epsilon: 0.3, Model: costmodel.Default()})
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyCompiled(g, res); err != nil {
		t.Fatal(err)
	}
	// hub feeds sinks p0$next, p1$next, s$next; if those sinks span both
	// partitions, hub must appear in both vertex lists.
	hub, _ := g.VertexByName("hub")
	parts := res.PartOf[hub]
	sinkParts := map[int32]bool{}
	for _, v := range []string{"w0", "w1"} {
		vid, _ := g.VertexByName(v)
		for _, p := range res.PartOf[vid] {
			sinkParts[p] = true
		}
	}
	if len(sinkParts) == 2 && len(parts) != 2 {
		t.Fatalf("hub should be replicated into both partitions, got %v", parts)
	}
}

func TestReplicationCostMatchesWeights(t *testing.T) {
	g := mustGraph(t, randomPipelineSrc(40, 7))
	res, err := Partition(g, Options{K: 4, Seed: 11, Model: costmodel.Default()})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, p := range res.Parts {
		sum += p.Weight
	}
	want := float64(sum)/float64(res.TotalWeight) - 1
	if diff := res.ReplicationCost - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("replication cost %.6f != recomputed %.6f", res.ReplicationCost, want)
	}
	// CutCost must equal the extra replicated weight.
	extra := sum - res.TotalWeight
	if res.CutCost != extra {
		t.Fatalf("CutCost %d != extra weight %d", res.CutCost, extra)
	}
}

func TestReplicationGrowsWithK(t *testing.T) {
	g := mustGraph(t, randomPipelineSrc(60, 5))
	var prev float64 = -1
	grew := false
	for _, k := range []int{2, 4, 8} {
		res, err := Partition(g, Options{K: k, Seed: 9, Model: costmodel.Default()})
		if err != nil {
			t.Fatal(err)
		}
		if res.ReplicationCost > prev {
			grew = true
		}
		prev = res.ReplicationCost
	}
	if !grew {
		t.Fatalf("replication cost never grew with k")
	}
}

func TestUnweightedDiffersFromWeighted(t *testing.T) {
	// With a div-heavy cluster, the weighted model should balance by cost
	// while UW balances by count; the partitions generally differ.
	var sb strings.Builder
	sb.WriteString("circuit W {\n  module W {\n    input i : UInt<16>\n")
	for r := 0; r < 12; r++ {
		fmt.Fprintf(&sb, "    reg d%d : UInt<16> init 1\n", r)
		if r < 3 {
			fmt.Fprintf(&sb, "    node q%d = div(d%d, i)\n", r, r)
			fmt.Fprintf(&sb, "    d%d <= q%d\n", r, r)
		} else {
			fmt.Fprintf(&sb, "    node q%d = xor(d%d, i)\n", r, r)
			fmt.Fprintf(&sb, "    d%d <= q%d\n", r, r)
		}
	}
	sb.WriteString("    output o : UInt<16>\n    o <= q0\n  }\n}\n")
	g := mustGraph(t, sb.String())
	// The paper's claim is statistical: averaged over instances, the
	// weighted model balances *true* cost better than the flat model.
	m := costmodel.Default()
	imb := func(res *Result) float64 {
		var sum, max int64
		for _, p := range res.Parts {
			var wt int64
			for _, v := range p.Vertices {
				wt += m.VertexCost(&g.Vs[v])
			}
			sum += wt
			if wt > max {
				max = wt
			}
		}
		avg := float64(sum) / float64(len(res.Parts))
		return (float64(max) - avg) / avg
	}
	var wSum, uwSum float64
	for seed := int64(0); seed < 8; seed++ {
		w, err := Partition(g, Options{K: 3, Seed: seed, Model: costmodel.Default()})
		if err != nil {
			t.Fatal(err)
		}
		uw, err := Partition(g, Options{K: 3, Seed: seed, Model: costmodel.Unweighted()})
		if err != nil {
			t.Fatal(err)
		}
		if err := verifyCompiled(g, w); err != nil {
			t.Fatal(err)
		}
		if err := verifyCompiled(g, uw); err != nil {
			t.Fatal(err)
		}
		wSum += imb(w)
		uwSum += imb(uw)
	}
	if uwSum/8 < wSum/8-0.10 {
		t.Fatalf("unweighted (avg %.3f) should not balance true cost clearly better than weighted (avg %.3f)",
			uwSum/8, wSum/8)
	}
}

func TestErrors(t *testing.T) {
	g := mustGraph(t, randomPipelineSrc(4, 1))
	if _, err := Partition(g, Options{K: 0}); err == nil {
		t.Fatal("K=0 must error")
	}
}
