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
// The optimizer never touches memory or shadow-writing semantics.
// Folding may extend the immediate pool imms; optimize returns the pool.
func optimize(imms []uint64, th *ThreadCode, level int) []uint64 {
	for pass := 0; pass < 4; pass++ {
		changed := false
		changed = foldConstants(&imms, th) || changed
		changed = propagateCopies(th) || changed
		if level >= 2 {
			changed = fuseTruncations(th) || changed
		}
		changed = eliminateDead(th) || changed
		if !changed {
			break
		}
	}
	compact(th)
	return imms
}

// definesDst reports whether in.Dst is a real definition. OpNop and
// OpMemWr leave Dst meaningless, so reading their Dst/Mask fields as a
// local def would poison alias and mask tracking: the zero Dst aliases
// local temp 0 and claims its produced mask is in.Mask.
func definesDst(in *Instr) bool { return in.Op != OpNop && in.Op != OpMemWr }

// hasSideEffect reports whether the instruction must be kept regardless of
// whether its destination is read.
func hasSideEffect(in *Instr) bool {
	return in.Op == OpMemWr || RefTag(in.Dst) == RefShadow
}

// foldConstants replaces instructions whose operands are all immediates
// with immediate references at their use sites.
func foldConstants(imms *[]uint64, th *ThreadCode) bool {
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
	for i := range th.Code {
		in := &th.Code[i]
		n := TraitsOf(in.Op).Reads
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
		if in.Op == OpNop || in.Op == OpMemRd || in.Op == OpMemWr {
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
			v[k] = (*imms)[RefIdx(*refs[k])]
		}
		r, _ := EvalOp(in.Op, in.Aux, in.Mask, v[0], v[1], v[2])
		immOf[RefIdx(in.Dst)] = intern(r)
		in.Op = OpNop
		changed = true
	}
	return changed
}

// propagateCopies replaces uses of pure-alias copies (mask keeps every bit
// the producer can set) with the original value.
func propagateCopies(th *ThreadCode) bool {
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
		n := TraitsOf(in.Op).Reads
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
func fuseTruncations(th *ThreadCode) bool {
	// Count uses and find the defining instruction of each temp (-1: none).
	uses := make([]int32, th.NumTemps)
	def := make([]int32, th.NumTemps)
	for t := range def {
		def[t] = -1
	}
	for i := range th.Code {
		in := &th.Code[i]
		n := TraitsOf(in.Op).Reads
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
func eliminateDead(th *ThreadCode) bool {
	live := make([]bool, th.NumTemps)
	for i := range th.Code {
		in := &th.Code[i]
		n := TraitsOf(in.Op).Reads
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
