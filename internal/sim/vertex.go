package sim

import (
	"fmt"

	"repro/internal/cgraph"
	"repro/internal/firrtl"
)

// maskOf returns the w-bit all-ones mask (w in 1..64).
func maskOf(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (1 << uint(w)) - 1
}

// emit appends one instruction to the thread's buffer. An optimising
// compile first resolves the instruction's local operands through the
// thread's aliases; then a local definition that needs no code emits
// nothing and becomes an alias instead: a pure op on immediates folds to
// the immediate of its value, and a copy that keeps every bit its source
// can carry stands for the source.
func (tc *threadCompiler) emit(in instr) {
	if !tc.c.opt {
		tc.code = append(tc.code, in)
		return
	}
	for n := uint32(len(tc.alias)); n < tc.nextTemp; n++ {
		tc.alias = append(tc.alias, makeRef(refLocal, n))
		tc.produced = append(tc.produced, 0)
	}
	tr := TraitsOf(in.Op)
	refs := [3]*uint32{&in.A, &in.B, &in.C}
	allImm := tr.Reads > 0
	for _, r := range refs[:tr.Reads] {
		if refTag(*r) == refLocal {
			*r = tc.alias[refIdx(*r)]
		}
		allImm = allImm && refTag(*r) == refImm
	}
	if definesDst(in.Op) && refTag(in.Dst) == refLocal {
		d := refIdx(in.Dst)
		if tr.Pure && allImm {
			// Fold through the executor itself, so folding cannot diverge
			// from execution.
			var v [3]uint64
			for k, r := range refs[:tr.Reads] {
				v[k] = tc.imms[refIdx(*r)]
			}
			r, _ := EvalOp(in.Op, in.Aux, in.Mask, v[0], v[1], v[2])
			tc.alias[d] = makeRef(refImm, tc.internImm(r))
			return
		}
		// A copy of an immediate folded above; a copy of a global word,
		// whose bits the emitter does not track, stays a copy.
		if in.Op == OpCopy && refTag(in.A) == refLocal && tc.produced[refIdx(in.A)]&^in.Mask == 0 {
			tc.alias[d] = in.A
			return
		}
		tc.produced[d] = in.Mask
	}
	tc.code = append(tc.code, in)
}

// operandType returns the IR type of an operand.
func (tc *threadCompiler) operandType(a cgraph.Operand) firrtl.Type {
	if a.V != cgraph.None {
		return tc.c.g.Vs[a.V].Type
	}
	return a.Lit.Typ
}

// narrowRef resolves an operand to an interpreter reference: of its first
// word, for a value wider than 64 bits.
func (tc *threadCompiler) narrowRef(a cgraph.Operand) (uint32, error) {
	if a.V == cgraph.None {
		return makeRef(refImm, tc.internImm(a.Lit.Val.Uint64())), nil
	}
	vx := &tc.c.g.Vs[a.V]
	if vx.Kind.IsSource() {
		ref, ok := tc.c.globalOf[a.V]
		if !ok {
			return 0, fmt.Errorf("source %s has no global slot", vx.Name)
		}
		return ref, nil
	}
	idx, ok := tc.tempOf[a.V]
	if !ok {
		return 0, fmt.Errorf("operand %s not yet computed in this partition (self-containment violated)", vx.Name)
	}
	return makeRef(refLocal, idx), nil
}

// sexted returns a reference to the 64-bit sign-extended form of ref when t
// is signed and narrower than 64 bits; otherwise ref unchanged.
func (tc *threadCompiler) sexted(ref uint32, t firrtl.Type) uint32 {
	if t.Kind != firrtl.KSInt || t.Width >= 64 {
		return ref
	}
	dst := tc.scratch()
	tc.emit(instr{Op: OpSext, Dst: dst, A: ref, Aux: uint32(t.Width), Mask: ^uint64(0)})
	return dst
}

// compileVertex emits code for one vertex.
func (tc *threadCompiler) compileVertex(v cgraph.VID) error {
	vx := &tc.c.g.Vs[v]
	if vx.Kind.IsSource() {
		return nil
	}
	if tc.touchesWide(vx) {
		return tc.lowerVertex(v)
	}
	switch vx.Kind {
	case cgraph.KindConst:
		dst := tc.defineTemp(v)
		ref := makeRef(refImm, tc.internImm(vx.Args[0].Lit.Val.Uint64()))
		tc.emit(instr{Op: OpCopy, Dst: dst, A: ref, Mask: maskOf(vx.Type.Width)})
		return nil
	case cgraph.KindLogic:
		return tc.compileLogic(v)
	case cgraph.KindMemRead:
		addr, err := tc.narrowRef(vx.Args[0])
		if err != nil {
			return err
		}
		dst := tc.defineTemp(v)
		tc.emit(instr{Op: OpMemRd, Dst: dst, A: addr, Aux: tc.c.memBase[vx.Mem], Mask: maskOf(vx.Type.Width)})
		return nil
	case cgraph.KindMemWrite:
		addr, err := tc.narrowRef(vx.Args[0])
		if err != nil {
			return err
		}
		data, err := tc.narrowRef(vx.Args[1])
		if err != nil {
			return err
		}
		en, err := tc.narrowRef(vx.Args[2])
		if err != nil {
			return err
		}
		// Sign-extend narrow signed data into the memory's width.
		dt := tc.operandType(vx.Args[1])
		if dt.Kind == firrtl.KSInt && dt.Width < vx.Type.Width {
			data = tc.sexted(data, dt)
		}
		tc.emit(instr{Op: OpMemWr, A: addr, B: data, C: en, Aux: tc.c.memBase[vx.Mem], Mask: maskOf(vx.Type.Width)})
		return nil
	case cgraph.KindRegWrite, cgraph.KindOutput:
		drv, err := tc.narrowRef(vx.Args[0])
		if err != nil {
			return err
		}
		dt := tc.operandType(vx.Args[0])
		if dt.Kind == firrtl.KSInt && dt.Width < vx.Type.Width {
			drv = tc.sexted(drv, dt)
		}
		slot, ok := tc.c.sinkSlots[v]
		if !ok || slot.thread != tc.t {
			return fmt.Errorf("sink %s has no shadow slot on thread %d", vx.Name, tc.t)
		}
		tc.emit(instr{Op: OpCopy, Dst: makeRef(refShadow, slot.idx), A: drv, Mask: maskOf(vx.Type.Width)})
		return nil
	}
	return fmt.Errorf("unhandled vertex kind %v", vx.Kind)
}

// defineTemp allocates and registers the result location of v, one
// thread-private temp per 64 bits of its width. It returns the ref of the
// first word.
func (tc *threadCompiler) defineTemp(v cgraph.VID) uint32 {
	idx := tc.nextTemp
	tc.nextTemp += uint32(words(tc.c.g.Vs[v].Type.Width))
	tc.tempOf[v] = idx
	return makeRef(refLocal, idx)
}

// compileLogic emits code for a primitive-operation vertex.
func (tc *threadCompiler) compileLogic(v cgraph.VID) error {
	vx := &tc.c.g.Vs[v]
	refs := make([]uint32, len(vx.Args))
	for i, a := range vx.Args {
		r, err := tc.narrowRef(a)
		if err != nil {
			return err
		}
		refs[i] = r
	}
	ats := vx.ArgTypes
	rw := vx.Type.Width
	mask := maskOf(rw)
	signed := len(ats) > 0 && ats[0].Kind == firrtl.KSInt
	emitBin := func(op OpCode, sext bool) {
		a, b := refs[0], refs[1]
		if sext {
			a = tc.sexted(a, ats[0])
			b = tc.sexted(b, ats[1])
		}
		tc.emit(instr{Op: op, Dst: tc.defineTemp(v), A: a, B: b, Mask: mask})
	}
	emitUn := func(op OpCode, aux uint32, sext bool) {
		a := refs[0]
		if sext {
			a = tc.sexted(a, ats[0])
		}
		tc.emit(instr{Op: op, Dst: tc.defineTemp(v), A: a, Aux: aux, Mask: mask})
	}

	switch vx.Op {
	case firrtl.OpAdd:
		emitBin(OpAdd, signed)
	case firrtl.OpSub:
		emitBin(OpSub, signed)
	case firrtl.OpMul:
		emitBin(OpMul, signed)
	case firrtl.OpDiv:
		if signed {
			emitBin(OpSDiv, true)
		} else {
			emitBin(OpDiv, false)
		}
	case firrtl.OpRem:
		if signed {
			emitBin(OpSRem, true)
		} else {
			emitBin(OpRem, false)
		}
	case firrtl.OpLt:
		if signed {
			emitBin(OpSLt, true)
		} else {
			emitBin(OpLt, false)
		}
	case firrtl.OpLeq:
		if signed {
			emitBin(OpSLeq, true)
		} else {
			emitBin(OpLeq, false)
		}
	case firrtl.OpGt:
		if signed {
			emitBin(OpSGt, true)
		} else {
			emitBin(OpGt, false)
		}
	case firrtl.OpGeq:
		if signed {
			emitBin(OpSGeq, true)
		} else {
			emitBin(OpGeq, false)
		}
	case firrtl.OpEq:
		// Compare sign-extended forms when signed so value equality holds
		// across widths; for UInt the canonical forms compare directly.
		emitBin(OpEq, signed)
	case firrtl.OpNeq:
		emitBin(OpNeq, signed)
	case firrtl.OpAnd, firrtl.OpOr, firrtl.OpXor:
		// Bitwise ops are the one family that admits mixed-kind operands;
		// each signed argument sign-extends to the (UInt) result width
		// independently, so the ats[0]-only `signed` flag is not enough.
		// sexted is a per-argument no-op on UInt, so passing true extends
		// exactly the signed side(s).
		mixedSigned := ats[0].Kind == firrtl.KSInt || ats[1].Kind == firrtl.KSInt
		switch vx.Op {
		case firrtl.OpAnd:
			emitBin(OpAnd, mixedSigned)
		case firrtl.OpOr:
			emitBin(OpOr, mixedSigned)
		default:
			emitBin(OpXor, mixedSigned)
		}
	case firrtl.OpNot:
		emitUn(OpNot, 0, false)
	case firrtl.OpNeg:
		emitUn(OpNeg, 0, signed)
	case firrtl.OpCvt, firrtl.OpAsUInt, firrtl.OpAsSInt:
		emitUn(OpCopy, 0, false)
	case firrtl.OpAndR:
		tc.emit(instr{Op: OpAndr, Dst: tc.defineTemp(v), A: refs[0], Mask: maskOf(ats[0].Width)})
	case firrtl.OpOrR:
		emitUn(OpOrr, 0, false)
	case firrtl.OpXorR:
		emitUn(OpXorr, 0, false)
	case firrtl.OpCat:
		tc.emit(instr{Op: OpCat, Dst: tc.defineTemp(v), A: refs[0], B: refs[1],
			Aux: uint32(ats[1].Width), Mask: mask})
	case firrtl.OpBits:
		emitUn(OpShr, uint32(vx.Consts[1]), false)
	case firrtl.OpHead:
		emitUn(OpShr, uint32(ats[0].Width-vx.Consts[0]), false)
	case firrtl.OpTail:
		emitUn(OpCopy, 0, false) // mask keeps the low rw bits
	case firrtl.OpPad:
		if signed && vx.Consts[0] > ats[0].Width {
			a := tc.sexted(refs[0], ats[0])
			tc.emit(instr{Op: OpCopy, Dst: tc.defineTemp(v), A: a, Mask: mask})
		} else {
			emitUn(OpCopy, 0, false)
		}
	case firrtl.OpShl:
		emitUn(OpShl, uint32(vx.Consts[0]), false)
	case firrtl.OpShr:
		if signed {
			emitUn(OpSar, uint32(vx.Consts[0]), true)
		} else {
			emitUn(OpShr, uint32(vx.Consts[0]), false)
		}
	case firrtl.OpDshl:
		emitBin(OpDshl, false)
	case firrtl.OpDshr:
		if signed {
			a := tc.sexted(refs[0], ats[0])
			tc.emit(instr{Op: OpDsar, Dst: tc.defineTemp(v), A: a, B: refs[1],
				Aux: uint32(ats[0].Width), Mask: mask})
		} else {
			emitBin(OpDshr, false)
		}
	case firrtl.OpMux:
		b, c := refs[1], refs[2]
		if ats[1].Kind == firrtl.KSInt {
			if ats[1].Width < rw {
				b = tc.sexted(b, ats[1])
			}
			if ats[2].Width < rw {
				c = tc.sexted(c, ats[2])
			}
		}
		tc.emit(instr{Op: OpMux, Dst: tc.defineTemp(v), A: refs[0], B: b, C: c, Mask: mask})
	default:
		return fmt.Errorf("unhandled primitive %s", vx.Op)
	}
	return nil
}
