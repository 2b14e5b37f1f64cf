package optable

import (
	"strings"
	"testing"
)

// TestTraitsMatchTemplates holds each row's declared traits to what its
// template does: Reads is the highest operand it reads, MasksResult means
// it truncates through $M, MaskIsOperand means it reads $MASK, and every
// lane or native form reads the same operands as the row's Go form.
func TestTraitsMatchTemplates(t *testing.T) {
	for i, op := range Table {
		if op.Go == "" {
			continue // the no-op and the per-target memory ops
		}
		forms := map[string]string{"Go": op.Go, "Lane": op.Lane}
		if op.Native != nil {
			forms["Native(8)"], forms["Native(0)"] = op.Native(8), op.Native(0)
		}
		for name, tmpl := range forms {
			if tmpl == "" {
				continue
			}
			reads := 0
			var masked bool
			out := Expand(tmpl, &Target{
				Dst: "d", Aux: "aux", Mask: "mask",
				Operand: func(k int) string { reads = max(reads, k+1); return "x" },
				M:       func(x string) string { masked = true; return x },
				Cmp:     func(c string) string { return c },
			})
			if reads != op.Traits.Reads {
				t.Errorf("op %d %s %s: reads %d operands, Traits.Reads = %d", i, op.Name, name, reads, op.Traits.Reads)
			}
			if name == "Go" && masked != op.Traits.MasksResult {
				t.Errorf("op %d %s: masks its result = %v, Traits.MasksResult = %v", i, op.Name, masked, op.Traits.MasksResult)
			}
			if strings.Contains(out, "mask") != op.Traits.MaskIsOperand && name == "Go" {
				t.Errorf("op %d %s: reads the mask as a value = %v, Traits.MaskIsOperand = %v",
					i, op.Name, !op.Traits.MaskIsOperand, op.Traits.MaskIsOperand)
			}
			if strings.Contains(out, "$") {
				t.Errorf("op %d %s %s: unexpanded placeholder in %q", i, op.Name, name, out)
			}
		}
	}
}

// TestExpandOrder pins the order the native emitter relies on: text order,
// a wrapper's argument before the wrapper.
func TestExpandOrder(t *testing.T) {
	var calls []string
	out := Expand("$D = $M(($A + $B)) | $CMP($C)", &Target{
		Dst:     "d",
		Operand: func(k int) string { calls = append(calls, string(rune('a'+k))); return string(rune('a' + k)) },
		M:       func(x string) string { calls = append(calls, "M"); return "[" + x + "]" },
		Cmp:     func(c string) string { calls = append(calls, "CMP"); return "!" + c },
	})
	if want := "d = [(a + b)] | !c"; out != want {
		t.Errorf("Expand = %q, want %q", out, want)
	}
	if got, want := strings.Join(calls, " "), "a b M c CMP"; got != want {
		t.Errorf("callback order %q, want %q", got, want)
	}
}

// TestNeedsLoad pins which operands stay state loads in native source.
func TestNeedsLoad(t *testing.T) {
	for _, c := range []struct {
		name string
		k    int
		want bool
	}{
		{"Cat", 0, true}, {"Cat", 1, false},
		{"Sar", 0, true}, {"Dsar", 0, true}, {"Dsar", 1, false},
		{"SLt", 0, true}, {"SLt", 1, true}, {"SDiv", 1, true}, {"SRem", 0, true},
		{"Add", 0, false}, {"Lt", 1, false}, {"Div", 0, false}, {"Mux", 2, false},
	} {
		for _, op := range Table {
			if op.Name == c.name {
				if got := NeedsLoad(op.Go, c.k); got != c.want {
					t.Errorf("NeedsLoad(%s, %d) = %v, want %v", c.name, c.k, got, c.want)
				}
			}
		}
	}
}
