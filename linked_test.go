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
// {0, 1, 2, 8}, the linked engine must match the reference interpreter
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
				interp := sim.NewInterpEngine(comp.Program)
				rng := rand.New(rand.NewSource(99))
				for cyc := 0; cyc < 50; cyc++ {
					for _, in := range comp.Program.Inputs {
						if in.Wide {
							continue
						}
						v := rng.Uint64()
						if err := linked.PokeInput(in.Name, v); err != nil {
							t.Fatal(err)
						}
						if err := interp.PokeInput(in.Name, v); err != nil {
							t.Fatal(err)
						}
					}
					linked.Run(1)
					interp.Run(1)
				}
				for _, r := range comp.Program.Regs {
					lv, err := linked.PeekReg(r.Name)
					if err != nil {
						t.Fatal(err)
					}
					iv, err := interp.PeekReg(r.Name)
					if err != nil {
						t.Fatal(err)
					}
					if !bitvec.Eq(lv, iv) {
						t.Fatalf("workers=%d: reg %s diverges: linked %v, interp %v", workers, r.Name, lv, iv)
					}
				}
				for _, o := range comp.Program.Outputs {
					if o.Wide {
						continue
					}
					lv, _ := linked.PeekOutput(o.Name)
					iv, _ := interp.PeekOutput(o.Name)
					if lv != iv {
						t.Fatalf("workers=%d: output %s diverges: linked %d, interp %d", workers, o.Name, lv, iv)
					}
				}
			}
		})
	}
}

// The verifier's Linked option must re-scan the linked streams: a clean
// program passes, and its report covers more locations than the base scan.
func TestVerifyLinkedOption(t *testing.T) {
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
	base := verify.Program(comp.Program, verify.Options{})
	withLinked := verify.Program(comp.Program, verify.Options{Linked: true})
	if err := withLinked.Err(); err != nil {
		t.Fatal(err)
	}
	if withLinked.Instrs <= base.Instrs || withLinked.Locs <= base.Locs {
		t.Fatalf("linked scan added no coverage: instrs %d vs %d, locs %d vs %d",
			withLinked.Instrs, base.Instrs, withLinked.Locs, base.Locs)
	}
}
