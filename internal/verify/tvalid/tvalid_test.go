package tvalid

import (
	"fmt"
	"testing"

	"repro/internal/cgraph"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/firrtl"
	"repro/internal/genckt"
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

// compilePair compiles the same graph+partition at O0 and O2, the pair the
// validator compares.
func compilePair(t testing.TB, g *cgraph.Graph, k int) (*sim.Program, *sim.Program) {
	t.Helper()
	var parts []sim.PartSpec
	if k <= 1 {
		parts = sim.SerialSpec(g)
	} else {
		res, err := core.Partition(g, core.Options{K: k, Seed: 1, Epsilon: 0.1, Model: costmodel.Default()})
		if err != nil {
			t.Fatalf("partition k=%d: %v", k, err)
		}
		parts = make([]sim.PartSpec, len(res.Parts))
		for i := range res.Parts {
			parts[i] = sim.PartSpec{Vertices: res.Parts[i].Vertices, Sinks: res.Parts[i].Sinks}
		}
	}
	p0, err := sim.Compile(g, parts, sim.Config{OptLevel: 0})
	if err != nil {
		t.Fatalf("compile O0: %v", err)
	}
	p2, err := sim.Compile(g, parts, sim.Config{OptLevel: 2})
	if err != nil {
		t.Fatalf("compile O2: %v", err)
	}
	return p0, p2
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

// requireValid asserts the certificate proves equivalence.
func requireValid(t testing.TB, r *Result, ctx string) {
	t.Helper()
	if err := r.Err(); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	if r.Pairs == 0 {
		t.Fatalf("%s: validator compared nothing", ctx)
	}
}

func TestValidateCleanMemMix(t *testing.T) {
	g := mustGraph(t, memMixSrc)
	for _, k := range []int{1, 2, 3} {
		p0, p2 := compilePair(t, g, k)
		r := Validate(p0, p2, Options{})
		requireValid(t, r, fmt.Sprintf("k=%d", k))
		t.Logf("k=%d: %s", k, r)
	}
}

// TestValidateSeededCircuits is the breadth gate: 200 generator circuits
// (40 in -short mode) across thread counts validate O0 == O2+linked
// with zero divergences.
func TestValidateSeededCircuits(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 40
	}
	probed := 0
	for seed := int64(1); seed <= int64(n); seed++ {
		s := genckt.Generate(genckt.Config{Seed: seed, Size: 45})
		d, err := s.Build()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		g := d.Graph
		k := 1 + int(seed%3)
		p0, p2 := compilePair(t, g, k)
		r := Validate(p0, p2, Options{})
		requireValid(t, r, fmt.Sprintf("seed=%d k=%d", seed, k))
		probed += r.Probed
	}
	t.Logf("%d circuits validated, %d pairs settled by probing", n, probed)
}
