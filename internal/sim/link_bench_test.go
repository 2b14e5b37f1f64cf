package sim

import (
	"testing"

	"repro/internal/designs"
)

// benchProgram compiles a bundled design for the executor benchmarks.
func benchProgram(b *testing.B) *Program {
	b.Helper()
	g, err := designs.Build(designs.Config{Kind: designs.Rocket, Cores: 1, Scale: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	prog, err := Compile(g, SerialSpec(g), Config{OptLevel: 2})
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

// BenchmarkEvalLinked times the engine's linked streams on a bundled
// design.
func BenchmarkEvalLinked(b *testing.B) {
	e := NewEngine(benchProgram(b))
	for _, in := range e.prog.Inputs {
		if in.Width <= 64 {
			if err := e.PokeInput(in.Name, 0xa5a5a5a5a5a5a5a5); err != nil {
				b.Fatal(err)
			}
		}
	}
	e.Run(2) // reach steady state before timing
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(b.N)
	b.StopTimer()
	cyc := float64(b.N)
	b.ReportMetric(cyc/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkOperandResolution is the layout bake-off referenced by link.go:
// the same synthetic instruction mix executed with closure-per-operand
// access, a views table (one slice per operand space,
// tag extracted per access), and the flat unified frame the linker emits.
// The flat frame wins because each operand is a single predictable load
// with no tag extraction and no second dependent slice header fetch.
func BenchmarkOperandResolution(b *testing.B) {
	const (
		words  = 4096
		instrs = 2048
	)
	// Three equal spaces, synthetic add/mask stream touching all of them.
	space := make([][]uint64, 3)
	for s := range space {
		space[s] = make([]uint64, words)
		for i := range space[s] {
			space[s][i] = uint64(s*words + i)
		}
	}
	type sin struct{ dst, a, b uint32 } // packed tag<<30 | idx refs
	mk := func(i int) sin {
		return sin{
			dst: uint32(0<<30) | uint32(i%words),
			a:   uint32(1<<30) | uint32((i*7)%words),
			b:   uint32(2<<30) | uint32((i*13)%words),
		}
	}
	code := make([]sin, instrs)
	for i := range code {
		code[i] = mk(i)
	}

	b.Run("closure", func(b *testing.B) {
		val := func(ref uint32) uint64 { return space[ref>>30][ref&0x3fffffff] }
		store := func(ref uint32, v uint64) { space[ref>>30][ref&0x3fffffff] = v }
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			for i := range code {
				in := &code[i]
				store(in.dst, val(in.a)+val(in.b))
			}
		}
	})
	b.Run("views", func(b *testing.B) {
		views := [3][]uint64{space[0], space[1], space[2]}
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			for i := range code {
				in := &code[i]
				views[in.dst>>30][in.dst&0x3fffffff] =
					views[in.a>>30][in.a&0x3fffffff] + views[in.b>>30][in.b&0x3fffffff]
			}
		}
	})
	b.Run("frame", func(b *testing.B) {
		// Pre-resolve every ref into one flat slice, as link() does.
		flat := make([]uint64, 3*words)
		for s := range space {
			copy(flat[s*words:], space[s])
		}
		resolved := make([]sin, instrs)
		for i, in := range code {
			resolved[i] = sin{
				dst: (in.dst>>30)*words + in.dst&0x3fffffff,
				a:   (in.a>>30)*words + in.a&0x3fffffff,
				b:   (in.b>>30)*words + in.b&0x3fffffff,
			}
		}
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			for i := range resolved {
				in := &resolved[i]
				flat[in.dst] = flat[in.a] + flat[in.b]
			}
		}
	})
}
