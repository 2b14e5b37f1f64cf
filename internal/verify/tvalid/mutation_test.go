package tvalid

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// This file plants known-bad transformations into otherwise-correct O2
// output and asserts the validator rejects each with a usable thread/pc/slot
// diagnostic. The first three replay the historical miscompiles the
// differential fuzzer found (PR 5) — proving translation validation would
// have caught each statically at compile time; the rest cover new classes.

// findInstr locates the first instruction matching pred, returning thread
// and pc.
func findInstr(p *sim.Program, pred func(in sim.Instr) bool) (int, int) {
	for t := range p.Threads {
		for pc, in := range p.Threads[t].Code {
			if pred(in) {
				return t, pc
			}
		}
	}
	return -1, -1
}

// requireRejected asserts the certificate refutes equivalence and that the
// diagnostic names a plausible location: a real thread, a defining pc on
// the mutated side, and the expected slot.
func requireRejected(t *testing.T, r *Result, slotSub string) Divergence {
	t.Helper()
	if r.Skipped != "" {
		t.Fatalf("unexpectedly skipped: %s", r.Skipped)
	}
	if err := r.Err(); err == nil {
		t.Fatalf("planted mutation validated clean: %s", r)
	}
	for _, d := range r.Divergences {
		if strings.Contains(d.Slot, slotSub) {
			if d.Thread < 0 {
				t.Fatalf("divergence lost its thread: %s", d)
			}
			if d.RefPC < 0 && d.OptPC < 0 {
				t.Fatalf("divergence names no defining instruction: %s", d)
			}
			if !strings.Contains(d.Detail, "witness") {
				t.Fatalf("divergence carries no concrete witness: %s", d)
			}
			return d
		}
	}
	t.Fatalf("no divergence names slot %q: %v", slotSub, r.Divergences)
	return Divergence{}
}

// wideProducerMaskSrc is the circuit of the first historical miscompile
// (difftest crasher wide-producer-mask.fir): propagateCopies trusted the
// meaningless Dst/Mask of the boxed wide instruction that computed
// bits(in1, 15, 0) and aliased away the 4-bit tail mask on a memory
// write's data operand.
const wideProducerMaskSrc = `
circuit Gen {
  module Gen {
    input in0 : UInt<1>
    input in1 : UInt<100>
    reg r0 : SInt<1> init 0
    reg r3 : UInt<1> init 0
    mem m0 : UInt<23>[8]
    node n30 = tail(bits(in1, 15, 0), 12)
    r0 <= SInt<1>(0)
    r3 <= in0
    write(m0, pad(asUInt(r0), 3), pad(n30, 23), r3)
  }
}
`

// TestMutationCopyPropAliasing replays miscompile #1 on the word-level
// stream: the memory write's data operand is re-aliased to in1's raw low
// word, bypassing both the bits and the tail mask — the value an unsound
// copy propagation over the lowered bits would forward.
func TestMutationCopyPropAliasing(t *testing.T) {
	g := mustGraph(t, wideProducerMaskSrc)
	p0, p2 := compilePair(t, g, 1)

	in1, ok := p2.Input("in1")
	if !ok {
		t.Fatal("no input in1")
	}
	mt, mpc := findInstr(p2, func(in sim.Instr) bool { return in.Op == sim.OpMemWr })
	if mt < 0 {
		t.Fatal("no memory write in O2 stream")
	}
	p2.Threads[mt].Code[mpc].B = sim.MakeRef(sim.RefGlobal, in1.Slot)

	d := requireRejected(t, Validate(p0, p2, Options{}), `mem "m0"`)
	if d.Thread != mt {
		t.Fatalf("divergence thread %d, mutated thread %d", d.Thread, mt)
	}
	t.Logf("caught: %s", d)
}

// mixedKindSrc is the circuit of the second historical miscompile: bitwise
// ops over mixed UInt/SInt operands must sign-extend the signed side.
const mixedKindSrc = `
circuit Gen {
  module Gen {
    input a : UInt<8>
    output oOr  : UInt<32>
    output oAnd : UInt<32>
    output oXor : UInt<32>
    node s = asSInt(a)
    oOr  <= or(UInt<32>(0), s)
    oAnd <= and(UInt<32>(4294967295), s)
    oXor <= xor(UInt<32>(0), s)
  }
}
`

// TestMutationDroppedSignExtension replays miscompile #2: an OpSext is
// neutralized (Aux=0 means "as-is"), zero-extending the signed operand the
// way the kind-blind emitter did.
func TestMutationDroppedSignExtension(t *testing.T) {
	g := mustGraph(t, mixedKindSrc)
	p0, p2 := compilePair(t, g, 1)

	st, spc := findInstr(p2, func(in sim.Instr) bool { return in.Op == sim.OpSext && in.Aux != 0 })
	if st < 0 {
		t.Fatal("no sign extension in O2 stream")
	}
	p2.Threads[st].Code[spc].Aux = 0

	d := requireRejected(t, Validate(p0, p2, Options{}), "output")
	t.Logf("caught: %s", d)
}

// dshiftSrc exercises a dynamic right shift, the third historical
// miscompile's territory (EvalPrim truncated the shift amount).
const dshiftSrc = `
circuit D {
  module D {
    input a : UInt<32>
    input n : UInt<6>
    output o : UInt<32>
    o <= bits(dshr(a, n), 31, 0)
  }
}
`

// TestMutationDynamicShiftTruncation replays miscompile #3: the dynamic
// shift's amount operand is discarded (OpDshr becomes a static OpShr by 0),
// the observable effect of truncating the amount conversion.
func TestMutationDynamicShiftTruncation(t *testing.T) {
	g := mustGraph(t, dshiftSrc)
	p0, p2 := compilePair(t, g, 1)

	dt, dpc := findInstr(p2, func(in sim.Instr) bool { return in.Op == sim.OpDshr })
	if dt < 0 {
		t.Fatal("no dynamic shift in O2 stream")
	}
	p2.Threads[dt].Code[dpc].Op = sim.OpShr
	p2.Threads[dt].Code[dpc].Aux = 0

	d := requireRejected(t, Validate(p0, p2, Options{}), "output")
	if d.OptPC < 0 {
		t.Fatalf("mutated side pc missing: %s", d)
	}
	t.Logf("caught: %s", d)
}

// TestMutationConstantPool (new class): a flipped bit in the optimized
// program's immediate pool. The symbolic executors intern constants by
// value, never by pool index, so the corrupt constant surfaces directly.
func TestMutationConstantPool(t *testing.T) {
	g := mustGraph(t, mixedKindSrc)
	p0, p2 := compilePair(t, g, 1)

	idx := -1
	for i, v := range p2.Imms {
		if v == 4294967295 {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatal("and-mask constant not in O2 imm pool")
	}
	p2.Imms[idx] ^= 1

	d := requireRejected(t, Validate(p0, p2, Options{}), `output "oAnd"`)
	t.Logf("caught: %s", d)
}

// TestMutationSwappedMuxArms (new class): mux arms exchanged in the O2
// stream — the shape a broken mux-absorption rewrite would take.
func TestMutationSwappedMuxArms(t *testing.T) {
	g := mustGraph(t, `
circuit X {
  module X {
    input s : UInt<1>
    input x : UInt<8>
    input y : UInt<8>
    output o : UInt<8>
    o <= mux(s, x, y)
  }
}
`)
	p0, p2 := compilePair(t, g, 1)
	mt, mpc := findInstr(p2, func(in sim.Instr) bool { return in.Op == sim.OpMux })
	if mt < 0 {
		t.Fatal("no mux in O2 stream")
	}
	in := &p2.Threads[mt].Code[mpc]
	in.B, in.C = in.C, in.B

	d := requireRejected(t, Validate(p0, p2, Options{}), `output "o"`)
	t.Logf("caught: %s", d)
}

// TestMutationNarrowedMask (new class): a sink's result mask narrowed by
// one bit — the shape of an unsound truncation-fusion rewrite.
func TestMutationNarrowedMask(t *testing.T) {
	g := mustGraph(t, memMixSrc)
	p0, p2 := compilePair(t, g, 1)

	xt, xpc := findInstr(p2, func(in sim.Instr) bool {
		return in.Op == sim.OpXor && sim.RefTag(in.Dst) == sim.RefShadow && in.Mask == 0xffff
	})
	if xt < 0 {
		t.Fatal("no 16-bit xor sink in O2 stream")
	}
	p2.Threads[xt].Code[xpc].Mask = 0x7fff

	d := requireRejected(t, Validate(p0, p2, Options{}), "global word")
	t.Logf("caught: %s", d)
}

// TestMutationDroppedMemWrite (new class): a memory write deleted from the
// O2 stream. The positional write-list comparison reports the missing
// entry even though no slot hash can.
func TestMutationDroppedMemWrite(t *testing.T) {
	g := mustGraph(t, memMixSrc)
	p0, p2 := compilePair(t, g, 1)

	mt, mpc := findInstr(p2, func(in sim.Instr) bool { return in.Op == sim.OpMemWr })
	if mt < 0 {
		t.Fatal("no memory write in O2 stream")
	}
	p2.Threads[mt].Code[mpc] = sim.Instr{Op: sim.OpNop}

	d := requireRejected(t, Validate(p0, p2, Options{}), `mem "ram"`)
	if d.RefPC < 0 {
		t.Fatalf("reference write pc missing: %s", d)
	}
	t.Logf("caught: %s", d)
}

// TestMutationLinkedOperandResolution (new class): a corrupt operand index
// in the *linked* stream — the validator's linked-side symbolic executor
// must catch bugs introduced after optimization, by operand resolution
// itself.
func TestMutationLinkedOperandResolution(t *testing.T) {
	g := mustGraph(t, dshiftSrc)
	p0, p2 := compilePair(t, g, 1)

	lp := p2.Linked()
	ft, fpc := -1, -1
	for ti := range lp.Threads {
		for pc := range lp.Threads[ti].Code {
			li := &lp.Threads[ti].Code[pc]
			if li.Op == sim.OpDshr {
				ft, fpc = ti, pc
			}
		}
	}
	if ft < 0 {
		t.Fatal("no linked dynamic shift")
	}
	li := &lp.Threads[ft].Code[fpc]
	li.B = li.A // shift amount now reads the value operand

	// The diagnostic names the sink's defining instruction on each side —
	// downstream of the mutated shift, in the same thread.
	d := requireRejected(t, Validate(p0, p2, Options{}), "output")
	if d.Thread != ft || d.OptPC < 0 {
		t.Fatalf("divergence thread %d pc %d, mutated thread %d: %s", d.Thread, d.OptPC, ft, d)
	}
	t.Logf("caught: %s", d)
}
