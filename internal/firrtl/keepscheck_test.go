package firrtl_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cgraph"
	"repro/internal/designs"
	"repro/internal/firrtl"
	"repro/internal/genckt"
)

// flattenLowerChecked runs Flatten and Lower on a checked circuit and
// requires that each result checks: neither pass re-checks its own output.
func flattenLowerChecked(t *testing.T, name string, c *firrtl.Circuit) *firrtl.Circuit {
	t.Helper()
	fc, err := firrtl.Flatten(c)
	if err != nil {
		t.Fatalf("%s: flatten: %v", name, err)
	}
	if err := firrtl.Check(fc); err != nil {
		t.Fatalf("%s: flattened circuit fails check: %v", name, err)
	}
	lc, err := firrtl.Lower(fc)
	if err != nil {
		t.Fatalf("%s: lower: %v", name, err)
	}
	if err := firrtl.Check(lc); err != nil {
		t.Fatalf("%s: lowered circuit fails check: %v", name, err)
	}
	return lc
}

// TestFrontEndKeepsCheck: Check accepts what Flatten and Lower make of the
// 12 Table-1 circuits and of genckt seeds 1–500.
func TestFrontEndKeepsCheck(t *testing.T) {
	for _, cfg := range designs.Table1(1) {
		c := designs.BuildCircuit(cfg)
		if err := firrtl.Check(c); err != nil {
			t.Fatalf("%s: %v", cfg.Name(), err)
		}
		flattenLowerChecked(t, cfg.Name(), c)
	}
	for seed := int64(1); seed <= 500; seed++ {
		d, err := genckt.Generate(genckt.Config{Seed: seed}).Build()
		if err != nil {
			t.Fatal(err)
		}
		flattenLowerChecked(t, fmt.Sprintf("genckt seed %d", seed), d.Circuit)
	}
}

// A Lower that emitted a node reading an undeclared temp would be caught
// by Check, and cgraph.Build refuses such a circuit with an error, not a
// panic.
func TestUndeclaredTempRefused(t *testing.T) {
	lc := flattenLowerChecked(t, "RocketChip-1C", designs.BuildCircuit(designs.Config{Kind: designs.Rocket, Cores: 1, Scale: 1}))
	planted := false
	for _, st := range lc.Modules[0].Stmts {
		n, _ := st.(*firrtl.Node)
		if n == nil || planted {
			continue
		}
		if p, ok := n.Expr.(*firrtl.Prim); ok {
			for _, a := range p.Args {
				if r, ok := a.(*firrtl.Ref); ok && strings.HasPrefix(r.Name, "lt$") {
					r.Name, planted = "lt$undeclared", true
					break
				}
			}
		}
	}
	if !planted {
		t.Fatal("no node reads a lowering temp")
	}
	if err := firrtl.Check(lc); err == nil || !strings.Contains(err.Error(), "lt$undeclared") {
		t.Errorf("check of a node reading an undeclared temp: %v", err)
	}
	if _, err := cgraph.Build(lc); err == nil || !strings.Contains(err.Error(), "lt$undeclared") {
		t.Errorf("build of a node reading an undeclared temp: %v", err)
	}
}
