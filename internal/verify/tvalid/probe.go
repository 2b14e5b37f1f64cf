package tvalid

import (
	"fmt"
	"math/rand"

	"repro/internal/bitvec"
	"repro/internal/sim"
)

// probe is the decision procedure for slot pairs the hash-cons proof could
// not settle: it runs the O0 reference and the optimized program on the
// real engine, end to end, so there is no third semantics to drift — over
// seeded boundary-pattern stimulus, comparing every register, output, and
// memory each cycle. A concrete mismatch refutes equivalence with a witness; a
// clean sweep over all rounds is strong evidence the residual mismatches
// are normalization incompleteness, not miscompiles.
func probe(ref, opt *sim.Program, o Options) (witness string, diverged bool) {
	for round := 0; round < probeRounds; round++ {
		if w, d := probeRound(ref, opt, o, round); d {
			return w, true
		}
	}
	return "", false
}

func probeRound(ref, opt *sim.Program, o Options, round int) (string, bool) {
	e0 := sim.NewEngine(ref)
	e2 := sim.NewEngine(opt)
	e0.Reset()
	e2.Reset()
	rng := rand.New(rand.NewSource(o.Seed + int64(round)*0x9e3779b9))

	for cyc := 0; cyc < probeCycles; cyc++ {
		for _, in := range opt.Inputs {
			v := stimulus(rng, round, in.Width)
			e0.PokeInputVec(in.Name, v)
			e2.PokeInputVec(in.Name, v)
		}
		e0.Run(1)
		e2.Run(1)
		if w := compareState(e0, e2, opt, round, cyc); w != "" {
			return w, true
		}
	}
	return "", false
}

// stimulus generates one input value for the given round's pattern class:
// boundary patterns (all-zeros, all-ones, sign bit, alternating bits) for
// the first rounds, uniformly random words after, all clamped to width.
func stimulus(rng *rand.Rand, round, width int) bitvec.Vec {
	v := bitvec.New(width)
	switch round {
	case 0: // all ones: saturates every mask boundary
		for j := range v.Words {
			v.Words[j] = ^uint64(0)
		}
	case 1: // sign bit only: the sign-extension boundary
		if width > 0 {
			v.Words[(width-1)/64] = uint64(1) << uint((width-1)%64)
		}
	case 2: // alternating bits
		for j := range v.Words {
			v.Words[j] = 0x5555555555555555
		}
	case 3: // zeros
	default:
		for j := range v.Words {
			v.Words[j] = rng.Uint64()
		}
	}
	return bitvec.ZeroExtend(width, v)
}

// compareState diffs the architectural state of the two engines, returning
// a witness description of the first mismatch.
func compareState(e0, e2 *sim.Engine, p *sim.Program, round, cyc int) string {
	for i := range p.Regs {
		name := p.Regs[i].Name
		a, err0 := e0.PeekReg(name)
		b, err2 := e2.PeekReg(name)
		if err0 != nil || err2 != nil {
			continue
		}
		if !bitvec.Eq(a, b) {
			return fmt.Sprintf("probe witness (round %d cycle %d): reg %q O0=%s optimized=%s",
				round, cyc, name, a, b)
		}
	}
	for i := range p.Outputs {
		name := p.Outputs[i].Name
		a, err0 := e0.PeekOutputVec(name)
		b, err2 := e2.PeekOutputVec(name)
		if err0 != nil || err2 != nil {
			continue
		}
		if !bitvec.Eq(a, b) {
			return fmt.Sprintf("probe witness (round %d cycle %d): output %q O0=%s optimized=%s",
				round, cyc, name, a, b)
		}
	}
	for _, mi := range p.Memories() {
		m := &p.Mems[mi]
		depth := m.Depth
		if depth > probeMemAddrs {
			depth = probeMemAddrs
		}
		for addr := 0; addr < depth; addr++ {
			a, err0 := e0.PeekMemVec(m.Name, addr)
			b, err2 := e2.PeekMemVec(m.Name, addr)
			if err0 != nil || err2 != nil {
				continue
			}
			if !bitvec.Eq(a, b) {
				return fmt.Sprintf("probe witness (round %d cycle %d): mem %q addr %d O0=%s optimized=%s",
					round, cyc, m.Name, addr, a, b)
			}
		}
	}
	return ""
}

// probeMemAddrs caps how many leading addresses of each memory the probe
// compares per cycle (random and boundary stimulus lands writes at small
// addresses far more often than deep ones; a full scan of a deep memory
// every cycle would dominate validation time).
const probeMemAddrs = 64
