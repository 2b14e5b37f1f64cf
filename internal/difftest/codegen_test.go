package difftest

import (
	"testing"

	"repro/internal/codegen"
	"repro/internal/genckt"
)

// TestCodegenColumnClean: the native-codegen engine joins the matrix and
// must agree with every other engine on a handful of generated circuits.
func TestCodegenColumnClean(t *testing.T) {
	if err := codegen.Supported(); err != nil {
		t.Skipf("native codegen unsupported here: %v", err)
	}
	for seed := int64(1); seed <= 4; seed++ {
		d, err := genckt.Generate(genckt.Config{Seed: seed, Size: 45}).Build()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		opt := Options{Seed: seed, Cycles: 15, Parts: []int{3}, Codegen: true}
		if m := Run(d, opt); m != nil {
			t.Fatalf("seed %d: %v", seed, m)
		}
	}
}

// TestCodegenMutation proves the codegen column can actually fail: a
// kernel built with the planted BugCmpInvert emitter defect must be
// caught by the matrix on at least one seed. The defect changes only the
// printed kernel text, so only running the kernel can see it.
func TestCodegenMutation(t *testing.T) {
	if err := codegen.Supported(); err != nil {
		t.Skipf("native codegen unsupported here: %v", err)
	}
	for seed := int64(1); seed <= 25; seed++ {
		d, err := genckt.Generate(genckt.Config{Seed: seed, Size: 35}).Build()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		opt := Options{Seed: seed, Cycles: 15, Parts: []int{},
			CodegenBug: codegen.BugCmpInvert}
		m := Run(d, opt)
		if m == nil {
			continue // bug inapplicable or silent on this circuit
		}
		if m.Engine != "codegen-mutant" {
			t.Fatalf("seed %d: non-mutant engine diverged: %v", seed, m)
		}
		t.Logf("seed %d: planted emitter bug caught: %v", seed, m)
		return
	}
	t.Fatal("no seed in 1..25 exposed the planted BugCmpInvert kernel")
}
