package sim

import (
	"strings"
	"testing"

	"repro/internal/cgraph"
	"repro/internal/firrtl"
)

// A parsed circuit is untyped until firrtl.Check annotates it. Skipping
// Check must cost an error at the first stage that meets an untyped
// expression — Flatten, or cgraph.Build for a flat circuit that is only
// lowered — never a panic in Compile.
func TestUncheckedCircuitRejected(t *testing.T) {
	const src = `circuit T {
  module T {
    input i : UInt<8>
    output o : UInt<8>
    reg r : UInt<8> init 0
    node n = tail(add(r, i), 1)
    r <= n
    o <= n
  }
}
`
	compile := func(flatten bool) error {
		c, err := firrtl.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if flatten {
			if c, err = firrtl.Flatten(c); err != nil {
				return err
			}
		}
		lc, err := firrtl.Lower(c)
		if err != nil {
			return err
		}
		g, err := cgraph.Build(lc)
		if err != nil {
			return err
		}
		_, err = Compile(g, SerialSpec(g), Config{OptLevel: 2})
		return err
	}
	for flatten, stage := range map[bool]string{true: "flatten:", false: "cgraph:"} {
		err := compile(flatten)
		if err == nil || !strings.HasPrefix(err.Error(), stage) || !strings.Contains(err.Error(), "untyped") {
			t.Errorf("flatten=%t: err = %v, want an untyped-expression error from %s", flatten, err, stage)
		}
	}
}
