package codegen_test

import (
	"fmt"
	"testing"

	repcut "repro"
	"repro/internal/codegen"
	"repro/internal/designs"
	"repro/internal/sim"
)

// BenchmarkNativeKernel times the native kernel of each Table-1 design at
// k ∈ {1,2} on an Engine: one op is one simulated cycle, with no pokes or
// peeks.
// Kernels come from the default artifact store, so only the first run
// builds them. One design:
//
//	go test -run '^$' -bench 'NativeKernel/RocketChip-1C/' -count 7 ./internal/codegen
func BenchmarkNativeKernel(b *testing.B) {
	if err := codegen.Supported(); err != nil {
		b.Skipf("native codegen unsupported here: %v", err)
	}
	store, err := codegen.Open(codegen.DefaultBaseDir(), codegen.DefaultBudget)
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	for _, cfg := range designs.Table1(1) {
		b.Run(cfg.Name(), func(b *testing.B) {
			d, err := repcut.Elaborate(designs.BuildCircuit(cfg))
			if err != nil {
				b.Fatal(err)
			}
			for _, k := range []int{1, 2} {
				var e *sim.Engine // built on the first of the b.N rounds
				b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
					if e == nil {
						e = nativeEngine(b, store, d, k)
					}
					b.ResetTimer()
					e.Run(b.N)
				})
			}
		})
	}
}

// nativeEngine compiles d k ways and returns an engine running its native
// kernel, warmed up by 100 cycles.
func nativeEngine(b *testing.B, store *codegen.Store, d *repcut.Design, k int) *sim.Engine {
	c, err := d.CompileProgram(repcut.Options{Threads: k})
	if err != nil {
		b.Fatal(err)
	}
	kern, err := store.Kernel(c.Program, codegen.EmitOptions{})
	if err != nil {
		b.Fatal(err)
	}
	e := sim.NewEngine(c.Program)
	if err := e.InstallNative(kern.Threads); err != nil {
		b.Fatal(err)
	}
	e.Run(100)
	return e
}
