package sim

// optimize improves one thread's instruction stream in place.
//
// Level 1: constant folding and copy propagation with dead-code removal.
// Level 2: additionally fuses truncations (tail/bits-to-zero compiled as a
// masked copy) into their producer when the producer is the value's only
// use — the dominant pattern ESSENT emits for FIRRTL's carry-discarding
// arithmetic, and the optimization a newer C++ compiler applies in the
// paper's Figure 10 experiment.
//
// The optimizer never touches OpWide, memory, or shadow-writing semantics.
func optimize(p *Program, th *ThreadCode, level int) {
	for pass := 0; pass < 4; pass++ {
		changed := false
		changed = foldConstants(p, th) || changed
		changed = propagateCopies(p, th) || changed
		if level >= 2 {
			changed = fuseTruncations(p, th) || changed
		}
		changed = eliminateDead(p, th) || changed
		if !changed {
			break
		}
	}
	compact(th)
}

// wideNarrowRefs visits every narrow ref used by the thread's wide nodes:
// cb receives a pointer so passes can rewrite them. Wide nodes are created
// per thread during compilation, so mutating them here is safe.
func wideNarrowRefs(p *Program, th *ThreadCode, cb func(ref *uint32)) {
	for i := range th.Code {
		if th.Code[i].Op != OpWide {
			continue
		}
		wn := &p.WideNodes[th.Code[i].Aux]
		for a := range wn.Args {
			if wn.Args[a].Space == wsNarrow {
				cb(&wn.Args[a].Idx)
			}
		}
	}
}

// opReads returns how many operand refs (A, B, C) each opcode reads.
func opReads(op OpCode) int {
	switch op {
	case OpNop:
		return 0
	case OpCopy, OpNot, OpNeg, OpAndr, OpOrr, OpXorr, OpShl, OpShr, OpSar,
		OpSext, OpMemRd:
		return 1
	case OpMux, OpMemWr:
		return 3
	case OpWide:
		return 0
	default:
		return 2
	}
}

// definesDst reports whether in.Dst is a real narrow definition. OpNop,
// OpWide, and OpMemWr leave Dst meaningless (a wide node's destination
// lives in the wide-node table; a memory write has none), so reading their
// Dst/Mask fields as a local def would poison alias and mask tracking: the
// zero Dst aliases local temp 0 and claims its produced mask is in.Mask.
func definesDst(in *Instr) bool {
	switch in.Op {
	case OpNop, OpWide, OpMemWr:
		return false
	}
	return true
}

// hasSideEffect reports whether the instruction must be kept regardless of
// whether its destination is read.
func hasSideEffect(in *Instr) bool {
	switch in.Op {
	case OpMemWr, OpWide:
		return true
	}
	return RefTag(in.Dst) == RefShadow
}

// foldConstants replaces instructions whose operands are all immediates
// with immediate references at their use sites.
func foldConstants(p *Program, th *ThreadCode) bool {
	// immOf maps a local temp to the immediate ref that replaces it.
	immOf := map[uint32]uint32{}
	intern := func(v uint64) uint32 {
		for i, x := range p.Imms {
			if x == v {
				return uint32(i)
			}
		}
		p.Imms = append(p.Imms, v)
		return uint32(len(p.Imms) - 1)
	}
	changed := false
	for i := range th.Code {
		in := &th.Code[i]
		n := opReads(in.Op)
		// Rewrite operands already known constant.
		refs := [3]*uint32{&in.A, &in.B, &in.C}
		for k := 0; k < n; k++ {
			if RefTag(*refs[k]) == RefLocal {
				if imm, ok := immOf[RefIdx(*refs[k])]; ok {
					*refs[k] = MakeRef(RefImm, imm)
					changed = true
				}
			}
		}
		if in.Op == OpNop || in.Op == OpWide || in.Op == OpMemRd || in.Op == OpMemWr {
			continue
		}
		if RefTag(in.Dst) != RefLocal {
			continue
		}
		allImm := true
		for k := 0; k < n; k++ {
			if RefTag(*refs[k]) != RefImm {
				allImm = false
				break
			}
		}
		if !allImm || n == 0 {
			continue
		}
		// Evaluate through the executor itself so folding can never
		// diverge from execution.
		var v [3]uint64
		for k := 0; k < n; k++ {
			v[k] = p.Imms[RefIdx(*refs[k])]
		}
		r, _ := EvalOp(in.Op, in.Aux, in.Mask, v[0], v[1], v[2])
		immOf[RefIdx(in.Dst)] = intern(r)
		in.Op = OpNop
		changed = true
	}
	// Wide nodes read narrow locals too; point them at the folded
	// immediates or their producers are gone.
	wideNarrowRefs(p, th, func(ref *uint32) {
		if RefTag(*ref) == RefLocal {
			if imm, ok := immOf[RefIdx(*ref)]; ok {
				*ref = MakeRef(RefImm, imm)
				changed = true
			}
		}
	})
	return changed
}

// propagateCopies replaces uses of pure-alias copies (mask keeps every bit
// the producer can set) with the original value.
func propagateCopies(p *Program, th *ThreadCode) bool {
	// maskOfLocal[t] = result mask of the instruction defining temp t,
	// valid where defined[t].
	maskOfLocal := make([]uint64, th.NumTemps)
	defined := make([]bool, th.NumTemps)
	alias := map[uint32]uint32{} // temp -> ref it aliases
	resolve := func(ref uint32) uint32 {
		for RefTag(ref) == RefLocal {
			a, ok := alias[RefIdx(ref)]
			if !ok {
				return ref
			}
			ref = a
		}
		return ref
	}
	changed := false
	for i := range th.Code {
		in := &th.Code[i]
		n := opReads(in.Op)
		refs := [3]*uint32{&in.A, &in.B, &in.C}
		for k := 0; k < n; k++ {
			if r := resolve(*refs[k]); r != *refs[k] {
				*refs[k] = r
				changed = true
			}
		}
		if !definesDst(in) || RefTag(in.Dst) != RefLocal {
			continue
		}
		dst := RefIdx(in.Dst)
		if in.Op == OpCopy {
			srcMask, known := producedMask(in.A, maskOfLocal, defined)
			if known && srcMask&in.Mask == srcMask {
				alias[dst] = in.A
				maskOfLocal[dst], defined[dst] = srcMask, true
				continue
			}
		}
		maskOfLocal[dst], defined[dst] = in.Mask, true
	}
	// Rewrite aliased refs inside wide nodes too.
	wideNarrowRefs(p, th, func(ref *uint32) {
		if r := resolve(*ref); r != *ref {
			*ref = r
			changed = true
		}
	})
	return changed
}

// producedMask returns the set of bits ref can carry, when known.
func producedMask(ref uint32, maskOfLocal []uint64, defined []bool) (uint64, bool) {
	switch RefTag(ref) {
	case RefLocal:
		return maskOfLocal[RefIdx(ref)], defined[RefIdx(ref)]
	case RefImm:
		return ^uint64(0), true // exact value unknown here; be conservative
	default:
		return 0, false
	}
}

// fuseTruncations merges a masked copy into its producer when the copy is
// the producer's only consumer.
func fuseTruncations(p *Program, th *ThreadCode) bool {
	// Count uses and find the defining instruction of each temp (-1: none).
	uses := make([]int32, th.NumTemps)
	def := make([]int32, th.NumTemps)
	for t := range def {
		def[t] = -1
	}
	wideNarrowRefs(p, th, func(ref *uint32) {
		if RefTag(*ref) == RefLocal {
			uses[RefIdx(*ref)] += 2 // never single-use: cannot be fused away
		}
	})
	for i := range th.Code {
		in := &th.Code[i]
		n := opReads(in.Op)
		refs := [3]uint32{in.A, in.B, in.C}
		for k := 0; k < n; k++ {
			if RefTag(refs[k]) == RefLocal {
				uses[RefIdx(refs[k])]++
			}
		}
		if definesDst(in) && RefTag(in.Dst) == RefLocal {
			def[RefIdx(in.Dst)] = int32(i)
		}
	}
	changed := false
	for i := range th.Code {
		in := &th.Code[i]
		if in.Op != OpCopy || RefTag(in.A) != RefLocal {
			continue
		}
		t := RefIdx(in.A)
		if uses[t] != 1 {
			continue
		}
		di := def[t]
		if di < 0 {
			continue
		}
		prod := &th.Code[di]
		if !maskFusable(prod.Op) {
			continue
		}
		// Retarget the producer to the copy's destination with the
		// narrower mask.
		prod.Mask &= in.Mask
		prod.Dst = in.Dst
		in.Op = OpNop
		changed = true
	}
	return changed
}

// maskFusable reports whether narrowing an op's result mask is equivalent
// to masking afterwards.
func maskFusable(op OpCode) bool {
	switch op {
	case OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpNot, OpNeg,
		OpCat, OpShl, OpShr, OpSar, OpDshl, OpDshr, OpDsar, OpMux, OpCopy,
		OpMemRd:
		return true
	}
	return false
}

// eliminateDead removes instructions whose local destination is never read.
func eliminateDead(p *Program, th *ThreadCode) bool {
	live := make([]bool, th.NumTemps)
	wideNarrowRefs(p, th, func(ref *uint32) {
		if RefTag(*ref) == RefLocal {
			live[RefIdx(*ref)] = true
		}
	})
	for i := range th.Code {
		in := &th.Code[i]
		n := opReads(in.Op)
		refs := [3]uint32{in.A, in.B, in.C}
		for k := 0; k < n; k++ {
			if RefTag(refs[k]) == RefLocal {
				live[RefIdx(refs[k])] = true
			}
		}
	}
	changed := false
	for i := range th.Code {
		in := &th.Code[i]
		if in.Op == OpNop || hasSideEffect(in) {
			continue
		}
		if RefTag(in.Dst) == RefLocal && !live[RefIdx(in.Dst)] {
			in.Op = OpNop
			changed = true
		}
	}
	return changed
}

// compact drops OpNop placeholders.
func compact(th *ThreadCode) {
	out := th.Code[:0]
	for _, in := range th.Code {
		if in.Op != OpNop {
			out = append(out, in)
		}
	}
	th.Code = out
}
