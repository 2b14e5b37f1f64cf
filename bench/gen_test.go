package main

import (
	"regexp"
	"strings"
	"testing"

	repcut "repro"
	"repro/internal/designs"
	"repro/internal/firrtl"
)

var identRE = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*$`)

// Every generated text must parse, check and elaborate, and must describe
// the bundled design: without the stimulus port the graph statistics equal
// designs.Build's; with it they differ by exactly the port and the xor.
func TestGeneratedTextIsTheBundledDesign(t *testing.T) {
	cfgs := []designs.Config{rocket, mega,
		{Kind: designs.SmallBoom, Cores: 2, Scale: 0.5},
		{Kind: designs.LargeBoom, Cores: 1, Scale: 0.5}}
	for _, cfg := range cfgs {
		g, err := designs.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := g.Stats()
		for _, stim := range []bool{false, true} {
			c, err := circuit(cfg, stim)
			if err != nil {
				t.Fatal(err)
			}
			if !identRE.MatchString(c.Name) || c.Main() == nil {
				t.Fatalf("%s: top %q is not an identifier naming a module", cfg.Name(), c.Name)
			}
			parsed, err := repcut.ParseCircuit(firrtl.Print(c))
			if err != nil {
				t.Fatalf("%s stim=%t: generated text does not parse+check: %v", cfg.Name(), stim, err)
			}
			d, err := repcut.Elaborate(parsed)
			if err != nil {
				t.Fatalf("%s stim=%t: %v", cfg.Name(), stim, err)
			}
			got := d.Stats()
			if stim {
				want.IRNodes += 2
				want.Edges += 2
				want.SinkPct = got.SinkPct // a share of IRNodes; moves with it
			}
			if got != want {
				t.Errorf("%s stim=%t: stats %+v, want %+v", cfg.Name(), stim, got, want)
			}
		}
	}
}

func TestDesignTextHasStimulusAndNeverSeenKeepsTheDesign(t *testing.T) {
	text, err := designText(rocket)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "input "+stimPort+" : UInt<32>") {
		t.Error("generated text has no stimulus port")
	}
	a, b := neverSeen(text, 3, "op", 0), neverSeen(text, 3, "op", 1)
	if a == b || a == text {
		t.Error("neverSeen did not make the text distinct")
	}
	ca, err := repcut.ParseCircuit(a)
	if err != nil {
		t.Fatal(err)
	}
	if firrtl.Print(ca) != text {
		t.Error("neverSeen changed the design, not just its content address")
	}
}

func TestIdentifier(t *testing.T) {
	for in, want := range map[string]string{"RocketChip-1C": "RocketChip_1C", "4core": "_4core", "ok_1": "ok_1", "": "_"} {
		if got := identifier(in); got != want || !identRE.MatchString(got) {
			t.Errorf("identifier(%q) = %q, want %q", in, got, want)
		}
	}
}
