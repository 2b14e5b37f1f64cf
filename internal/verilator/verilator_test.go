package verilator

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cgraph"
	"repro/internal/costmodel"
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

// The baseline engine must be cycle-exact with the serial RepCut engine.
func TestMatchesSerial(t *testing.T) {
	for seed := int64(1); seed < 4; seed++ {
		g := mustGraph(t, pipelineSrc(30, seed))
		serialProg, err := sim.Compile(g, sim.SerialSpec(g), sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		serial := sim.NewEngine(serialProg)
		for _, threads := range []int{2, 4} {
			for _, pgo := range []bool{false, true} {
				v, err := New(g, Options{Threads: threads, PGO: pgo})
				if err != nil {
					t.Fatalf("threads=%d pgo=%v: %v", threads, pgo, err)
				}
				serial.Reset()
				rng := rand.New(rand.NewSource(seed))
				for cyc := 0; cyc < 15; cyc++ {
					in := rng.Uint64()
					if err := serial.PokeInput("i", in); err != nil {
						t.Fatal(err)
					}
					if err := v.Engine.PokeInput("i", in); err != nil {
						t.Fatal(err)
					}
					serial.Run(1)
					v.Engine.Run(1)
					for ri := range g.Regs {
						name := g.Regs[ri].Name
						sv, _ := serial.PeekReg(name)
						vv, err := v.Engine.PeekReg(name)
						if err != nil {
							t.Fatal(err)
						}
						if sv.Uint64() != vv {
							t.Fatalf("threads=%d pgo=%v cycle=%d: reg %s: serial=%d verilator=%d",
								threads, pgo, cyc, name, sv.Uint64(), vv)
						}
					}
				}
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

	model := costmodel.Default()
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
	base, err := New(g, Options{Threads: 4, Model: &model})
	if err != nil {
		t.Fatal(err)
	}
	pgo, err := New(g, Options{Threads: 4, PGO: true, Model: &model})
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

func TestProfiledRun(t *testing.T) {
	g := mustGraph(t, pipelineSrc(30, 9))
	s, err := New(g, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	samples := s.Engine.RunProfiled(3)
	if len(samples) != 3 {
		t.Fatalf("want 3 cycles of samples")
	}
	total := 0
	for _, row := range samples {
		total += len(row)
	}
	if total != 3*len(s.Tasks) {
		t.Fatalf("want %d task samples, got %d", 3*len(s.Tasks), total)
	}
}

func TestOptionsValidation(t *testing.T) {
	g := mustGraph(t, pipelineSrc(10, 1))
	if _, err := New(g, Options{Threads: 0}); err == nil {
		t.Fatal("expected error for zero threads")
	}
}
