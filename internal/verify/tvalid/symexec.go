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

// execLinked symbolically evaluates one thread of a program's linked code,
// mirroring evalLinked (linkexec.go) term-for-term. Validate runs it on both
// sides.
func execLinked(b *builder, p *sim.Program, t int) *threadState {
	th := &p.Threads[t]

	state := make([]*term, p.StateWords)
	lastPC := make([]int, p.StateWords)
	for i := 0; i < p.GlobalWords; i++ {
		state[i] = b.variable(uint32(i))
		lastPC[i] = -1
	}
	for i, v := range p.Imms {
		state[p.ImmOff+i] = b.konst(v)
		lastPC[p.ImmOff+i] = -1
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
	for pc := range th.Code {
		li := &th.Code[pc]
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
		st.shadow[i] = state[th.ShadowOff+uint32(i)]
		st.shadowPC[i] = lastPC[th.ShadowOff+uint32(i)]
	}
	return st
}
