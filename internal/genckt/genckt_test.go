package genckt

import (
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/sim"
)

func build(t *testing.T, seed int64, size int) *Design {
	t.Helper()
	s := Generate(Config{Seed: seed, Size: size})
	d, err := s.Build()
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return d
}

func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		a := build(t, seed, 50)
		b := build(t, seed, 50)
		if a.Text != b.Text {
			t.Fatalf("seed %d: non-deterministic emission", seed)
		}
		if a.Graph.NumVertices() != b.Graph.NumVertices() {
			t.Fatalf("seed %d: graph size differs", seed)
		}
	}
}

func TestGenerateBuildsValidCircuits(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		d := build(t, seed, 50)
		g := d.Graph
		if len(g.Outputs) == 0 {
			t.Fatalf("seed %d: no outputs", seed)
		}
		// A short reference run must not panic and must produce in-range
		// values.
		ref := sim.NewReference(g)
		rng := rand.New(rand.NewSource(seed * 31))
		for cyc := 0; cyc < 4; cyc++ {
			for _, vi := range g.Inputs {
				v := g.Vs[vi]
				w := bitvec.New(v.Type.Width)
				for j := range w.Words {
					w.Words[j] = rng.Uint64()
				}
				if err := ref.PokeInput(v.Name, bitvec.ZeroExtend(v.Type.Width, w)); err != nil {
					t.Fatalf("seed %d: poke %s: %v", seed, v.Name, err)
				}
			}
			ref.Step()
		}
		for _, o := range g.Outputs {
			v, err := ref.PeekOutput(g.Vs[o].Name)
			if err != nil {
				t.Fatalf("seed %d: peek %s: %v", seed, g.Vs[o].Name, err)
			}
			if v.Width != g.Vs[o].Type.Width {
				t.Fatalf("seed %d: output %s width %d, want %d",
					seed, g.Vs[o].Name, v.Width, g.Vs[o].Type.Width)
			}
		}
	}
}

// TestOpcodeCoverage compiles many generated circuits and checks the union
// of executed opcodes spans every interpreter opcode class the generator
// claims to cover — including the signed and dynamic-shift forms and both
// memory port directions.
func TestOpcodeCoverage(t *testing.T) {
	seen := map[sim.OpCode]bool{}
	for seed := int64(1); seed <= 60; seed++ {
		s := Generate(Config{Seed: seed, Size: 60})
		d, err := s.Build()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		p, err := sim.Compile(d.Graph, sim.SerialSpec(d.Graph), sim.Config{OptLevel: 0})
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		for _, th := range p.Threads {
			for _, in := range th.Code {
				seen[in.Op] = true
			}
		}
	}
	want := []sim.OpCode{
		sim.OpAdd, sim.OpSub, sim.OpMul, sim.OpDiv, sim.OpRem,
		sim.OpSDiv, sim.OpSRem,
		sim.OpLt, sim.OpSLt, sim.OpEq,
		sim.OpAnd, sim.OpOr, sim.OpXor, sim.OpNot, sim.OpNeg,
		sim.OpAndr, sim.OpOrr, sim.OpXorr,
		sim.OpCat, sim.OpShl, sim.OpShr, sim.OpSar,
		sim.OpDshl, sim.OpDshr, sim.OpDsar,
		sim.OpMux, sim.OpSext,
		sim.OpMemRd, sim.OpMemWr, sim.OpMulHi,
	}
	for _, op := range want {
		if !seen[op] {
			t.Errorf("opcode %v never generated across 60 seeds", op)
		}
	}
}

// TestShrinkTransformsStayBuildable applies each shrink transformation and
// checks the result still emits a valid circuit.
func TestShrinkTransformsStayBuildable(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		s := Generate(Config{Seed: seed, Size: 40})
		cands := []*Spec{
			s.RemoveNode(0),
			s.RemoveNode(len(s.Nodes) - 1),
			s.RemoveReg(0),
			s.RemoveInput(0),
			s.RemoveMemWrite(0),
			s.RemoveOutput(0),
			s.NarrowReg(0, 1),
			s.NarrowInput(0, 1),
			s.NarrowOutput(0, 1),
		}
		if c := s.RemoveMem(len(s.Mems) - 1); c != nil {
			cands = append(cands, c)
		}
		dd, _ := s.DropDeadNodes()
		cands = append(cands, dd)
		for i, c := range cands {
			if c == nil {
				continue
			}
			if _, err := c.Build(); err != nil {
				t.Fatalf("seed %d cand %d (%s): %v", seed, i, c.Counts(), err)
			}
		}
	}
}

// TestDropDeadNodesPreservesBehavior removes dead nodes and checks outputs
// are unchanged over a short run.
func TestDropDeadNodesPreservesBehavior(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		s := Generate(Config{Seed: seed, Size: 50})
		dd, n := s.DropDeadNodes()
		if n == 0 {
			continue
		}
		d0, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		d1, err := dd.Build()
		if err != nil {
			t.Fatal(err)
		}
		r0 := sim.NewReference(d0.Graph)
		r1 := sim.NewReference(d1.Graph)
		rng := rand.New(rand.NewSource(seed))
		for cyc := 0; cyc < 5; cyc++ {
			for _, vi := range d0.Graph.Inputs {
				v := d0.Graph.Vs[vi]
				w := bitvec.New(v.Type.Width)
				for j := range w.Words {
					w.Words[j] = rng.Uint64()
				}
				w = bitvec.ZeroExtend(v.Type.Width, w)
				if err := r0.PokeInput(v.Name, w); err != nil {
					t.Fatal(err)
				}
				if err := r1.PokeInput(v.Name, w); err != nil {
					t.Fatal(err)
				}
			}
			r0.Step()
			r1.Step()
			for _, o := range d0.Graph.Outputs {
				name := d0.Graph.Vs[o].Name
				v0, err0 := r0.PeekOutput(name)
				v1, err1 := r1.PeekOutput(name)
				if err0 != nil || err1 != nil {
					t.Fatalf("seed %d: peek %s: %v %v", seed, name, err0, err1)
				}
				if !bitvec.Eq(v0, v1) {
					t.Fatalf("seed %d cycle %d: output %s changed after dead-node removal", seed, cyc, name)
				}
			}
		}
	}
}

func TestClassicDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		g1, err := Classic(seed, 60)
		if err != nil {
			t.Fatal(err)
		}
		g2, err := Classic(seed, 60)
		if err != nil {
			t.Fatal(err)
		}
		if g1.NumVertices() != g2.NumVertices() {
			t.Fatalf("seed %d: Classic non-deterministic", seed)
		}
	}
}

func TestFromTextRejectsBadInput(t *testing.T) {
	cases := []string{
		"",
		"circuit X {",
		"circuit X { module X { output o : UInt<0> } }",
	}
	for i, src := range cases {
		if _, err := FromText(nil, src); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func BenchmarkGenerateBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := Generate(Config{Seed: int64(i), Size: 50})
		if _, err := s.Build(); err != nil {
			b.Fatalf("seed %d: %v", i, err)
		}
	}
}
