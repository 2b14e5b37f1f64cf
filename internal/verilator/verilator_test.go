package verilator

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cgraph"
	"repro/internal/designs"
	"repro/internal/firrtl"
	"repro/internal/sim"
)

// pipelineSrc builds a synthetic register-dense circuit.
func pipelineSrc(regs int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	sb.WriteString("circuit V {\n  module V {\n    input i : UInt<16>\n")
	for r := 0; r < regs; r++ {
		fmt.Fprintf(&sb, "    reg r%d : UInt<16> init %d\n", r, r*3+1)
	}
	sb.WriteString("    node hub = xor(r0, i)\n")
	for r := 0; r < regs; r++ {
		a, b := rng.Intn(regs), rng.Intn(regs)
		switch rng.Intn(4) {
		case 0:
			fmt.Fprintf(&sb, "    node n%d = tail(add(r%d, r%d), 1)\n", r, a, b)
		case 1:
			fmt.Fprintf(&sb, "    node n%d = xor(r%d, hub)\n", r, a)
		case 2:
			fmt.Fprintf(&sb, "    node n%d = and(r%d, not(r%d))\n", r, a, b)
		case 3:
			fmt.Fprintf(&sb, "    node n%d = mux(orr(r%d), r%d, hub)\n", r, a, b)
		}
		fmt.Fprintf(&sb, "    r%d <= n%d\n", r, r)
	}
	sb.WriteString("    output o : UInt<16>\n    o <= hub\n  }\n}\n")
	return sb.String()
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

func TestTaskInvariants(t *testing.T) {
	g := mustGraph(t, pipelineSrc(40, 2))
	s, err := New(g, Options{Threads: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Every non-source vertex in exactly one task.
	seen := map[cgraph.VID]int{}
	for i := range s.Tasks {
		for _, v := range s.Tasks[i].Vertices {
			seen[v]++
		}
	}
	for v := range g.Vs {
		if g.Vs[v].Kind.IsSource() {
			continue
		}
		if seen[cgraph.VID(v)] != 1 {
			t.Fatalf("vertex %s in %d tasks", g.Vs[v].Name, seen[cgraph.VID(v)])
		}
	}
	// Deps must reference earlier-finishing tasks (schedule coherence).
	for i := range s.Tasks {
		for _, d := range s.Tasks[i].Deps {
			if s.Tasks[d].PredFinish > s.Tasks[i].PredStart {
				t.Fatalf("task %d starts at %d before dep %d finishes at %d",
					i, s.Tasks[i].PredStart, d, s.Tasks[d].PredFinish)
			}
		}
	}
	// Over-partitioning: more tasks than threads.
	if len(s.Tasks) <= 3 {
		t.Fatalf("expected over-partitioning, got %d tasks", len(s.Tasks))
	}
}

// The baseline's instruction accounting is pinned to the real compiler: on
// every bundled design the tasks' instruction counts sum to the serial O0
// program's, and each thread's tasks sum to its workload. (That a vertex's
// count does not depend on its placement is sim's
// TestVertexInstrsMatchPartitions.)
func TestTaskInstrsMatchCompiler(t *testing.T) {
	for _, cfg := range designs.Table1(1.0) {
		g, err := designs.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := sim.Compile(g, sim.SerialSpec(g), sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{2, 4} {
			v, err := New(g, Options{Threads: k})
			if err != nil {
				t.Fatalf("%s k=%d: %v", cfg.Name(), k, err)
			}
			total := 0
			for th, tasks := range v.TaskWork {
				var sum float64
				for _, tw := range tasks {
					sum += tw.Instrs
				}
				if sum != v.Threads[th].Instrs {
					t.Errorf("%s k=%d thread %d: tasks hold %v instrs, thread %v", cfg.Name(), k, th, sum, v.Threads[th].Instrs)
				}
				total += int(sum)
			}
			if want := serial.TotalInstrs(); total != want {
				t.Errorf("%s k=%d: tasks hold %d instrs, serial compile %d", cfg.Name(), k, total, want)
			}
		}
	}
}

// With PGO the scheduler's estimates equal true costs, while the crude
// AST estimator mis-ranks tasks on circuits with skewed op costs. (The
// paper notes the end-to-end benefit of PGO is diminished by gigantic
// partitions, which this partitioner reproduces, so the meaningful
// property is estimate accuracy, not raw makespan.)
func TestPGOImprovesScheduleOnSkewedCosts(t *testing.T) {
	// Heavy dividers in a few cones, cheap xors elsewhere.
	var sb strings.Builder
	sb.WriteString("circuit S {\n  module S {\n    input i : UInt<16>\n")
	for r := 0; r < 24; r++ {
		fmt.Fprintf(&sb, "    reg r%d : UInt<16> init 1\n", r)
		if r < 4 {
			fmt.Fprintf(&sb, "    node n%d = div(r%d, i)\n", r, r)
		} else {
			fmt.Fprintf(&sb, "    node n%d = xor(r%d, i)\n", r, r)
		}
		fmt.Fprintf(&sb, "    r%d <= n%d\n", r, r)
	}
	sb.WriteString("    output o : UInt<16>\n    o <= n0\n  }\n}\n")
	g := mustGraph(t, sb.String())

	// Mean relative estimate error |est-true|/true over tasks.
	estErr := func(s *Sim) float64 {
		var sum float64
		var n int
		for i := range s.Tasks {
			if s.Tasks[i].TrueCost == 0 {
				continue
			}
			d := float64(s.Tasks[i].EstCost-s.Tasks[i].TrueCost) / float64(s.Tasks[i].TrueCost)
			if d < 0 {
				d = -d
			}
			sum += d
			n++
		}
		return sum / float64(n)
	}
	base, err := New(g, Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	pgo, err := New(g, Options{Threads: 4, PGO: true})
	if err != nil {
		t.Fatal(err)
	}
	if e := estErr(pgo); e > 1e-9 {
		t.Fatalf("PGO estimates should equal true costs, mean error %.3f", e)
	}
	if e := estErr(base); e < 0.2 {
		t.Fatalf("crude estimator should be badly wrong on skewed costs, mean error %.3f", e)
	}
}

func TestOptionsValidation(t *testing.T) {
	g := mustGraph(t, pipelineSrc(10, 1))
	if _, err := New(g, Options{Threads: 0}); err == nil {
		t.Fatal("expected error for zero threads")
	}
}
