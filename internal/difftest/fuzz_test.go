package difftest

import (
	"testing"

	"repro/internal/genckt"
)

// FuzzDifferentialSim lets the native fuzzer drive the generator's seed
// space. Every input is a full differential run: generator → firrtl text →
// parse → lower → compile (serial + one partition sweep) → cycle-exact
// state comparison. Any divergence is a real simulator or compiler bug.
func FuzzDifferentialSim(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(10))
	f.Add(int64(42), uint8(80), uint8(4))
	f.Add(int64(-7), uint8(15), uint8(20))
	f.Add(int64(1<<40), uint8(60), uint8(8))
	f.Fuzz(func(t *testing.T, seed int64, size, cycles uint8) {
		sz := 10 + int(size)%70
		cy := 1 + int(cycles)%16
		s := genckt.Generate(genckt.Config{Seed: seed, Size: sz})
		d, err := s.Build()
		if err != nil {
			t.Fatalf("generated circuit failed to build: %v", err)
		}
		opt := Options{Seed: seed*3 + 1, Cycles: cy, Parts: []int{3}}
		if m := Run(d, opt); m != nil {
			t.Fatalf("%v\ncircuit:\n%s", m, d.Text)
		}
	})
}
