package verify

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cgraph"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/designs"
	"repro/internal/firrtl"
	"repro/internal/sim"
)

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
		t.Fatalf("graph: %v", err)
	}
	return g
}

func partSpecs(res *core.Result) []sim.PartSpec {
	specs := make([]sim.PartSpec, len(res.Parts))
	for i := range res.Parts {
		specs[i] = sim.PartSpec{Vertices: res.Parts[i].Vertices, Sinks: res.Parts[i].Sinks,
			Dereps: res.DerepsOf(i)}
	}
	return specs
}

// compileParts partitions g into k threads (k==1 uses the serial spec) and
// compiles it, returning the program and the partition.
func compileParts(t testing.TB, g *cgraph.Graph, k, opt int) (*sim.Program, []sim.PartSpec) {
	t.Helper()
	var parts []sim.PartSpec
	if k <= 1 {
		parts = sim.SerialSpec(g)
	} else {
		res, err := core.Partition(g, core.Options{K: k, Seed: 1, Epsilon: 0.1, Model: costmodel.Default()})
		if err != nil {
			t.Fatalf("partition k=%d: %v", k, err)
		}
		parts = partSpecs(res)
	}
	p, err := sim.Compile(g, parts, sim.Config{OptLevel: opt})
	if err != nil {
		t.Fatalf("compile k=%d O%d: %v", k, opt, err)
	}
	return p, parts
}

// requireClean asserts the report carries no Error diagnostics.
func requireClean(t testing.TB, rep *Report, ctx string) {
	t.Helper()
	if err := rep.Err(); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	if rep.Instrs == 0 || rep.Locs == 0 {
		t.Fatalf("%s: verifier scanned nothing (instrs=%d locs=%d)", ctx, rep.Instrs, rep.Locs)
	}
}

const memMixSrc = `
circuit M {
  module M {
    input in : UInt<16>
    output out : UInt<16>
    reg a : UInt<16> init 3
    reg b : UInt<80> init 5
    mem ram : UInt<16>[32]
    node addr = bits(a, 4, 0)
    node rd = read(ram, addr)
    write(ram, addr, xor(in, rd), bits(a, 0, 0))
    a <= xor(in, rd)
    b <= cat(a, pad(xor(rd, bits(b, 15, 0)), 64))
    out <= xor(bits(b, 79, 64), a)
  }
}
`

// TestCleanProgramsVerify proves the three invariant families on correct
// compiler output across thread counts and optimization levels.
func TestCleanProgramsVerify(t *testing.T) {
	g := mustGraph(t, memMixSrc)
	for _, k := range []int{1, 2, 3} {
		for _, opt := range []int{0, 2} {
			p, parts := compileParts(t, g, k, opt)
			rep := Program(p, Options{Graph: g, Parts: parts})
			requireClean(t, rep, fmt.Sprintf("k=%d O%d", k, opt))
		}
	}
}

// TestReportWithoutGraph covers the program-only mode (no partition
// cross-check available, e.g. a deserialized program).
func TestReportWithoutGraph(t *testing.T) {
	g := mustGraph(t, memMixSrc)
	p, _ := compileParts(t, g, 2, 2)
	rep := Program(p, Options{})
	requireClean(t, rep, "no-graph mode")
	if !strings.Contains(rep.String(), "proven race-free") {
		t.Fatalf("unexpected summary: %s", rep.String())
	}
}

// TestExampleDesignsVerify runs the verifier over the paper's benchmark
// configurations — the ISSUE's "passes on all example designs" gate.
func TestExampleDesignsVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("design generation is slow in -short mode")
	}
	for _, cfg := range designs.Table1(0.5) {
		cfg := cfg
		t.Run(cfg.Name(), func(t *testing.T) {
			g, err := designs.Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 4} {
				p, parts := compileParts(t, g, k, 2)
				rep := Program(p, Options{Graph: g, Parts: parts})
				requireClean(t, rep, fmt.Sprintf("%s k=%d", cfg.Name(), k))
			}
		})
	}
}

// TestDiagString pins the provenance format mutation tests rely on.
func TestDiagString(t *testing.T) {
	d := Diag{Check: CheckRace, Severity: Error, Thread: 2, PC: 17,
		Slot: "global word 40", Msg: "boom"}
	s := d.String()
	for _, want := range []string{"error", "race-freedom", "thread 2", "pc 17", "global word 40", "boom"} {
		if !strings.Contains(s, want) {
			t.Fatalf("diag %q missing %q", s, want)
		}
	}
	layout := Diag{Check: CheckSchedule, Severity: Warning, Thread: -1, PC: -1, Msg: "m"}
	if s := layout.String(); strings.Contains(s, "thread") || strings.Contains(s, "pc") {
		t.Fatalf("layout diag should omit thread/pc: %q", s)
	}
}
