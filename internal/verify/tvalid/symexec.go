package tvalid

import "repro/internal/sim"

// threadState is the symbolic image of one thread after evaluating one
// cycle: a term per shadow word (the values the commit phase publishes) and
// the ordered memory-write list, each with the pc of its defining
// instruction for diagnostics.
type threadState struct {
	shadow   []*term
	shadowPC []int
	writes   []memWrite
}

// memWrite is one buffered memory write in program order. The optimizer
// never reorders, drops, or invents memory writes, so the O0 and optimized
// lists must match positionally.
type memWrite struct {
	mem  int
	addr *term
	data *term
	en   *term
	pc   int
}

// execO0 symbolically evaluates one thread of the unoptimized instruction
// stream, mirroring evalLinked (linkexec.go) term-for-term.
func execO0(b *builder, p *sim.Program, t int) *threadState {
	th := &p.Threads[t]
	temps := make([]*term, th.NumTemps)
	st := &threadState{
		shadow:   make([]*term, th.ShadowWords),
		shadowPC: make([]int, th.ShadowWords),
	}

	val := func(ref uint32) *term {
		idx := sim.RefIdx(ref)
		switch sim.RefTag(ref) {
		case sim.RefLocal:
			if int(idx) < len(temps) && temps[idx] != nil {
				return temps[idx]
			}
			return b.undef()
		case sim.RefGlobal:
			return b.variable(idx)
		case sim.RefImm:
			if int(idx) < len(p.Imms) {
				return b.konst(p.Imms[idx])
			}
			return b.undef()
		default: // RefShadow: valid as a copy source after it was written
			if int(idx) < len(st.shadow) && st.shadow[idx] != nil {
				return st.shadow[idx]
			}
			return b.undef()
		}
	}
	store := func(ref uint32, v *term, pc int) {
		idx := sim.RefIdx(ref)
		switch sim.RefTag(ref) {
		case sim.RefLocal:
			if int(idx) < len(temps) {
				temps[idx] = v
			}
		case sim.RefShadow:
			if int(idx) < len(st.shadow) {
				st.shadow[idx] = v
				st.shadowPC[idx] = pc
			}
		}
		// RefGlobal/RefImm destinations would be eval-phase global writes;
		// the structural verifier rejects them, and the validator's layout
		// check runs it first, so nothing to model here.
	}

	var ab [3]*term // scratch: b.app never retains a caller's buffer
	for pc := range th.Code {
		in := &th.Code[pc]
		switch in.Op {
		case sim.OpNop:
		case sim.OpMemWr:
			st.writes = append(st.writes, memWrite{
				mem:  int(in.Aux),
				addr: val(in.A),
				data: b.copyOf(val(in.B), in.Mask),
				en:   val(in.C),
				pc:   pc,
			})
		case sim.OpMemRd:
			store(in.Dst, b.app(sim.OpMemRd, in.Aux, in.Mask, val(in.A)), pc)
		default:
			tr := sim.TraitsOf(in.Op)
			n := 0
			if tr.Reads >= 1 {
				ab[n] = val(in.A)
				n++
			}
			if tr.Reads >= 2 {
				ab[n] = val(in.B)
				n++
			}
			if tr.Reads >= 3 {
				ab[n] = val(in.C)
				n++
			}
			store(in.Dst, b.app(in.Op, in.Aux, in.Mask, ab[:n]...), pc)
		}
	}
	return st
}

// execLinked symbolically evaluates one thread of the linked (resolved)
// stream, mirroring evalLinked (linkexec.go) term-for-term.
func execLinked(b *builder, lp *sim.LinkedProgram, t int) *threadState {
	p := lp.Program()
	th := &p.Threads[t]
	lt := &lp.Threads[t]

	state := make([]*term, lp.StateWords)
	lastPC := make([]int, lp.StateWords)
	for i := 0; i < p.GlobalWords; i++ {
		state[i] = b.variable(uint32(i))
		lastPC[i] = -1
	}
	for i, v := range p.Imms {
		state[lp.ImmOff+i] = b.konst(v)
		lastPC[lp.ImmOff+i] = -1
	}
	st := &threadState{
		shadow:   make([]*term, th.ShadowWords),
		shadowPC: make([]int, th.ShadowWords),
	}

	rd := func(idx uint32) *term {
		if int(idx) < len(state) && state[idx] != nil {
			return state[idx]
		}
		return b.undef()
	}
	wr := func(idx uint32, v *term, pc int) {
		if int(idx) >= len(state) {
			return
		}
		state[idx] = v
		lastPC[idx] = pc
	}
	var ab [3]*term // scratch: b.app never retains a caller's buffer
	for pc := range lt.Code {
		li := &lt.Code[pc]
		switch li.Op {
		case sim.OpNop:
		case sim.OpMemWr:
			st.writes = append(st.writes, memWrite{
				mem:  int(li.Aux),
				addr: rd(li.A),
				data: b.copyOf(rd(li.B), li.Mask),
				en:   rd(li.C),
				pc:   pc,
			})
		case sim.OpMemRd:
			wr(li.Dst, b.app(sim.OpMemRd, li.Aux, li.Mask, rd(li.A)), pc)
		default:
			tr := sim.TraitsOf(li.Op)
			n := 0
			if tr.Reads >= 1 {
				ab[n] = rd(li.A)
				n++
			}
			if tr.Reads >= 2 {
				ab[n] = rd(li.B)
				n++
			}
			if tr.Reads >= 3 {
				ab[n] = rd(li.C)
				n++
			}
			wr(li.Dst, b.app(li.Op, li.Aux, li.Mask, ab[:n]...), pc)
		}
	}

	// Extract the commit image: shadow words live at the thread's frame
	// shadow region in the unified state.
	for i := 0; i < th.ShadowWords; i++ {
		st.shadow[i] = state[lt.ShadowOff+uint32(i)]
		st.shadowPC[i] = lastPC[lt.ShadowOff+uint32(i)]
	}
	return st
}
