package repcut

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/designs"
	"repro/internal/sim"
	"repro/internal/verify"
)

// TestLinkedCrossCheckDesigns is the ISSUE-level acceptance test for the
// linked fast path: on bundled designs, for every compile worker count in
// {0, 1, 2, 8}, the linked engine must match the graph-walking sim.Reference
// bit-for-bit on every register over a randomized input run, the
// fingerprint must be identical across worker counts (linking changes
// nothing observable), and the static verifier must prove the linked
// programs sound.
func TestLinkedCrossCheckDesigns(t *testing.T) {
	cases := []struct {
		cfg     designs.Config
		threads int
	}{
		{designs.Config{Kind: designs.Rocket, Cores: 1, Scale: 0.25}, 1},
		{designs.Config{Kind: designs.SmallBoom, Cores: 1, Scale: 0.25}, 2},
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("%s-k%d", c.cfg.Name(), c.threads), func(t *testing.T) {
			g, err := designs.Build(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			d := &Design{Graph: g}
			var baseFP uint64
			for i, workers := range []int{0, 1, 2, 8} {
				comp, err := d.CompileProgram(Options{Threads: c.threads, Workers: workers, Verify: true})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				fp := comp.Program.Fingerprint()
				if i == 0 {
					baseFP = fp
				} else if fp != baseFP {
					t.Fatalf("workers=%d: fingerprint %#x differs from workers=0 %#x", workers, fp, baseFP)
				}
				if comp.Verification == nil || comp.Verification.Err() != nil {
					t.Fatalf("workers=%d: verify failed: %v", workers, comp.Verification.Err())
				}

				linked := sim.NewEngine(comp.Program)
				ref := sim.NewReference(g)
				rng := rand.New(rand.NewSource(99))
				for cyc := 0; cyc < 50; cyc++ {
					for _, in := range comp.Program.Inputs {
						if in.Width > 64 {
							continue
						}
						v := rng.Uint64()
						if err := linked.PokeInput(in.Name, v); err != nil {
							t.Fatal(err)
						}
						if err := ref.PokeInputUint(in.Name, v); err != nil {
							t.Fatal(err)
						}
					}
					linked.Run(1)
					ref.Step()
				}
				for _, r := range comp.Program.Regs {
					lv, err := linked.PeekReg(r.Name)
					if err != nil {
						t.Fatal(err)
					}
					rv, err := ref.PeekReg(r.Name)
					if err != nil {
						t.Fatal(err)
					}
					if !bitvec.Eq(lv, rv) {
						t.Fatalf("workers=%d: reg %s diverges: linked %v, reference %v", workers, r.Name, lv, rv)
					}
				}
				for _, o := range comp.Program.Outputs {
					lv, err := linked.PeekOutputVec(o.Name)
					if err != nil {
						t.Fatal(err)
					}
					rv, err := ref.PeekOutput(o.Name)
					if err != nil {
						t.Fatal(err)
					}
					if !bitvec.Eq(lv, rv) {
						t.Fatalf("workers=%d: output %s diverges: linked %v, reference %v", workers, o.Name, lv, rv)
					}
				}
			}
		})
	}
}

// The verifier scans each instruction once, in its linked form: the report
// counts every instruction exactly once whatever the options, and the
// deprecated Linked option changes nothing.
func TestVerifyCountsEachInstrOnce(t *testing.T) {
	c, err := ParseCircuit(counterSrc)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Elaborate(c)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := d.CompileProgram(Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := comp.Program
	base := verify.Program(p, verify.Options{})
	for name, opts := range map[string]verify.Options{
		"plain": {},
		//lint:ignore SA1019 pins that the deprecated field changes nothing
		"linked": {Linked: true},
		"batch":  {BatchLanes: 4},
	} {
		rep := verify.Program(p, opts)
		if err := rep.Err(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Instrs != p.TotalInstrs() {
			t.Fatalf("%s: %d instrs scanned, program has %d", name, rep.Instrs, p.TotalInstrs())
		}
		if rep.Locs != base.Locs {
			t.Fatalf("%s: %d locations, plain scan %d", name, rep.Locs, base.Locs)
		}
	}
}
