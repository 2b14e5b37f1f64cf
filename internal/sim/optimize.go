package sim

import "slices"

// optimize improves one thread's instruction stream in place.
//
// Level 1: constant folding and copy propagation with dead-code removal.
// Level 2: additionally fuses truncations (tail/bits-to-zero compiled as a
// masked copy) into their producer when the producer is the value's only
// use — the dominant pattern ESSENT emits for FIRRTL's carry-discarding
// arithmetic, and the optimization a newer C++ compiler applies in the
// paper's Figure 10 experiment.
//
// The optimizer never touches memory or shadow-writing semantics.
// Folding may extend the immediate pool imms; optimize returns the
// compacted code and the pool. numTemps sizes the thread's temp array.
func optimize(imms []uint64, code []instr, numTemps, level int) ([]instr, []uint64) {
	for pass := 0; pass < 4; pass++ {
		changed := false
		changed = foldConstants(&imms, code) || changed
		changed = propagateCopies(code, numTemps) || changed
		if level >= 2 {
			changed = fuseTruncations(code, numTemps) || changed
		}
		changed = eliminateDead(code, numTemps) || changed
		if !changed {
			break
		}
	}
	return slices.DeleteFunc(code, func(in instr) bool { return in.Op == OpNop }), imms
}

// definesDst reports whether an instruction of opcode op defines its Dst.
// OpNop and OpMemWr leave Dst meaningless, so reading their Dst/Mask fields
// as a local def would poison alias and mask tracking: the zero Dst aliases
// local temp 0 and claims its produced mask is in.Mask.
func definesDst(op OpCode) bool { return op != OpNop && op != OpMemWr }

// hasSideEffect reports whether the instruction must be kept regardless of
// whether its destination is read.
func hasSideEffect(in *instr) bool {
	return in.Op == OpMemWr || refTag(in.Dst) == refShadow
}

// foldConstants replaces instructions whose operands are all immediates
// with immediate references at their use sites.
func foldConstants(imms *[]uint64, code []instr) bool {
	// immOf maps a local temp to the immediate ref that replaces it.
	immOf := map[uint32]uint32{}
	intern := func(v uint64) uint32 {
		for i, x := range *imms {
			if x == v {
				return uint32(i)
			}
		}
		*imms = append(*imms, v)
		return uint32(len(*imms) - 1)
	}
	changed := false
	for i := range code {
		in := &code[i]
		n := TraitsOf(in.Op).Reads
		// Rewrite operands already known constant.
		refs := [3]*uint32{&in.A, &in.B, &in.C}
		for k := 0; k < n; k++ {
			if refTag(*refs[k]) == refLocal {
				if imm, ok := immOf[refIdx(*refs[k])]; ok {
					*refs[k] = makeRef(refImm, imm)
					changed = true
				}
			}
		}
		if in.Op == OpNop || in.Op == OpMemRd || in.Op == OpMemWr {
			continue
		}
		if refTag(in.Dst) != refLocal {
			continue
		}
		allImm := true
		for k := 0; k < n; k++ {
			if refTag(*refs[k]) != refImm {
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
			v[k] = (*imms)[refIdx(*refs[k])]
		}
		r, _ := EvalOp(in.Op, in.Aux, in.Mask, v[0], v[1], v[2])
		immOf[refIdx(in.Dst)] = intern(r)
		in.Op = OpNop
		changed = true
	}
	return changed
}

// propagateCopies replaces uses of pure-alias copies (mask keeps every bit
// the producer can set) with the original value.
func propagateCopies(code []instr, numTemps int) bool {
	// maskOfLocal[t] = result mask of the instruction defining temp t,
	// valid where defined[t].
	maskOfLocal := make([]uint64, numTemps)
	defined := make([]bool, numTemps)
	alias := map[uint32]uint32{} // temp -> ref it aliases
	resolve := func(ref uint32) uint32 {
		for refTag(ref) == refLocal {
			a, ok := alias[refIdx(ref)]
			if !ok {
				return ref
			}
			ref = a
		}
		return ref
	}
	changed := false
	for i := range code {
		in := &code[i]
		n := TraitsOf(in.Op).Reads
		refs := [3]*uint32{&in.A, &in.B, &in.C}
		for k := 0; k < n; k++ {
			if r := resolve(*refs[k]); r != *refs[k] {
				*refs[k] = r
				changed = true
			}
		}
		if !definesDst(in.Op) || refTag(in.Dst) != refLocal {
			continue
		}
		dst := refIdx(in.Dst)
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
	return changed
}

// producedMask returns the set of bits ref can carry, when known.
func producedMask(ref uint32, maskOfLocal []uint64, defined []bool) (uint64, bool) {
	switch refTag(ref) {
	case refLocal:
		return maskOfLocal[refIdx(ref)], defined[refIdx(ref)]
	case refImm:
		return ^uint64(0), true // exact value unknown here; be conservative
	default:
		return 0, false
	}
}

// fuseTruncations merges a masked copy into its producer when the copy is
// the producer's only consumer.
func fuseTruncations(code []instr, numTemps int) bool {
	// Count uses and find the defining instruction of each temp (-1: none).
	uses := make([]int32, numTemps)
	def := make([]int32, numTemps)
	for t := range def {
		def[t] = -1
	}
	for i := range code {
		in := &code[i]
		n := TraitsOf(in.Op).Reads
		refs := [3]uint32{in.A, in.B, in.C}
		for k := 0; k < n; k++ {
			if refTag(refs[k]) == refLocal {
				uses[refIdx(refs[k])]++
			}
		}
		if definesDst(in.Op) && refTag(in.Dst) == refLocal {
			def[refIdx(in.Dst)] = int32(i)
		}
	}
	changed := false
	for i := range code {
		in := &code[i]
		if in.Op != OpCopy || refTag(in.A) != refLocal {
			continue
		}
		t := refIdx(in.A)
		if uses[t] != 1 {
			continue
		}
		di := def[t]
		if di < 0 {
			continue
		}
		prod := &code[di]
		if !TraitsOf(prod.Op).MaskFusable {
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

// eliminateDead removes instructions whose local destination is never read.
func eliminateDead(code []instr, numTemps int) bool {
	live := make([]bool, numTemps)
	for i := range code {
		in := &code[i]
		n := TraitsOf(in.Op).Reads
		refs := [3]uint32{in.A, in.B, in.C}
		for k := 0; k < n; k++ {
			if refTag(refs[k]) == refLocal {
				live[refIdx(refs[k])] = true
			}
		}
	}
	changed := false
	for i := range code {
		in := &code[i]
		if in.Op == OpNop || hasSideEffect(in) {
			continue
		}
		if refTag(in.Dst) == refLocal && !live[refIdx(in.Dst)] {
			in.Op = OpNop
			changed = true
		}
	}
	return changed
}
