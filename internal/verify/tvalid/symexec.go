package tvalid

import (
	"fmt"

	"repro/internal/firrtl"
	"repro/internal/sim"
)

// threadState is the symbolic image of one thread after evaluating one
// cycle: a term per shadow word / wide-shadow slot (the values the commit
// phase publishes) and the ordered memory-write list, each with the pc of
// its defining instruction for diagnostics.
type threadState struct {
	shadow     []*term
	shadowPC   []int
	wideShad   []*term
	wideShadPC []int
	writes     []memWrite
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
// stream, mirroring evalBlock (exec.go) term-for-term.
func execO0(b *builder, p *sim.Program, t int) *threadState {
	th := &p.Threads[t]
	temps := make([]*term, th.NumTemps)
	wideTemps := make([]*term, th.NumWideTemps)
	st := &threadState{
		shadow:     make([]*term, th.ShadowWords),
		shadowPC:   make([]int, th.ShadowWords),
		wideShad:   make([]*term, len(th.WideShadowSlots)),
		wideShadPC: make([]int, len(th.WideShadowSlots)),
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

	fetchWide := func(a sim.WideOperand) *term {
		return fetchWideOperand(b, p, a, func(ref uint32) *term { return val(ref) },
			wideTemps, st.wideShad)
	}

	var ab [3]*term // scratch: b.app never retains a caller's buffer
	for pc := range th.Code {
		in := &th.Code[pc]
		switch in.Op {
		case sim.OpNop:
		case sim.OpWide:
			execWideNode(b, p, &p.WideNodes[in.Aux], pc, st, fetchWide,
				func(a sim.WideOperand, v *term) {
					putWide(b, a, v, pc, store, wideTemps, st)
				})
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
	wideTemps := make([]*term, th.NumWideTemps)
	st := &threadState{
		shadow:     make([]*term, th.ShadowWords),
		shadowPC:   make([]int, th.ShadowWords),
		wideShad:   make([]*term, len(th.WideShadowSlots)),
		wideShadPC: make([]int, len(th.WideShadowSlots)),
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
	fetchWide := func(a sim.WideOperand) *term {
		return fetchWideOperand(b, p, a, rd, wideTemps, st.wideShad)
	}

	var ab [3]*term // scratch: b.app never retains a caller's buffer
	for pc := range lt.Code {
		li := &lt.Code[pc]
		switch li.Op {
		case sim.OpNop:
		case sim.OpWide:
			execWideNode(b, p, &lp.WideNodes[li.Aux], pc, st, fetchWide,
				func(a sim.WideOperand, v *term) {
					putWideLinked(b, a, v, pc, wr, wideTemps, st)
				})
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

// fetchWideOperand is the shared wide-operand reader: narrow operands are
// boxed through the same FromUint64 truncation the executor performs, so a
// correctly optimized narrow feeder meets its O0 twin on the same term.
func fetchWideOperand(b *builder, p *sim.Program, a sim.WideOperand,
	narrow func(uint32) *term, wideTemps, wideShad []*term) *term {
	switch a.SpaceID() {
	case sim.WideSpaceNarr:
		t := b.copyOf(narrow(a.Idx), maskOf(a.Type.Width))
		if t.kind == tkConst {
			return b.wideConst(fmt.Sprintf("n%d.%d=%d", a.Type.Kind, a.Type.Width, t.val), t.val)
		}
		return b.wideApp(b.boxDescOf(a.Type), t)
	case sim.WideSpaceImm:
		if int(a.Idx) < len(p.WideImms) {
			v := p.WideImms[a.Idx]
			return b.wideConst(v.String(), v.Uint64())
		}
		return b.undef()
	case sim.WideSpaceGlob:
		return b.wideVariable(a.Idx)
	case sim.WideSpaceShad:
		if int(a.Idx) < len(wideShad) && wideShad[a.Idx] != nil {
			return wideShad[a.Idx]
		}
		return b.undef()
	default: // WideSpaceLocal
		if int(a.Idx) < len(wideTemps) && wideTemps[a.Idx] != nil {
			return wideTemps[a.Idx]
		}
		return b.undef()
	}
}

// wideDesc is the structural descriptor interning a wide node's semantics:
// kind, prim op, constant operands, result type, argument types, and the
// memory index. Wide evaluation routes through firrtl.EvalPrim and bitvec
// on both sides, so equal descriptors plus equal argument terms prove
// equal values.
func wideDesc(wn *sim.WideNode) string {
	s := fmt.Sprintf("k%d|op%d|c%v|r%v|m%d", wn.KindID(), wn.Op, wn.Consts, wn.RType, wn.Mem)
	for i := range wn.Args {
		s += fmt.Sprintf("|a%v", wn.Args[i].Type)
	}
	return s
}

// descOf memoizes wideDesc per node: descriptors are rebuilt for every
// validation but each node's is stable, and fmt is the expensive part.
func (b *builder) descOf(wn *sim.WideNode) string {
	if s, ok := b.descs[wn]; ok {
		return s
	}
	s := wideDesc(wn)
	b.descs[wn] = s
	return s
}

// boxDescOf memoizes the boxing descriptor per narrow operand type.
func (b *builder) boxDescOf(ty firrtl.Type) string {
	if s, ok := b.boxDescs[ty]; ok {
		return s
	}
	s := fmt.Sprintf("box|%v", ty)
	b.boxDescs[ty] = s
	return s
}

// execWideNode builds the term for one boxed wide node and routes it to the
// destination (or the write list for wkMemWr).
func execWideNode(b *builder, p *sim.Program, wn *sim.WideNode, pc int,
	st *threadState, fetch func(sim.WideOperand) *term,
	put func(sim.WideOperand, *term)) {
	switch wn.KindID() {
	case sim.WideKindConst:
		// The executor clones the fetched value unchanged.
		put(wn.Dst, fetch(wn.Args[0]))
	case sim.WideKindMemWr:
		// Write order and the eval-time enable check are positional
		// behavior; both sides run the identical (unoptimized) wide node
		// list, so recording every write with its enable term compares
		// soundly even though a zero enable skips buffering at runtime.
		st.writes = append(st.writes, memWrite{
			mem:  wn.Mem,
			addr: fetch(wn.Args[0]),
			data: b.wideApp(b.descOf(wn), fetch(wn.Args[1])),
			en:   fetch(wn.Args[2]),
			pc:   pc,
		})
	default: // wkPrim, wkCopy, wkMemRd
		args := make([]*term, len(wn.Args))
		for i := range wn.Args {
			args[i] = fetch(wn.Args[i])
		}
		put(wn.Dst, b.wideApp(b.descOf(wn), args...))
	}
}

// putWide stores a wide node's result for the O0 executor (Dst spaces still
// hold unresolved refs for narrow destinations).
func putWide(b *builder, a sim.WideOperand, v *term, pc int,
	store func(uint32, *term, int), wideTemps []*term, st *threadState) {
	switch a.SpaceID() {
	case sim.WideSpaceNarr:
		w := a.Type.Width
		if w > 64 {
			w = 64
		}
		store(a.Idx, b.narrowFromWide(v, w), pc)
	case sim.WideSpaceShad:
		if int(a.Idx) < len(st.wideShad) {
			st.wideShad[a.Idx] = v
			st.wideShadPC[a.Idx] = pc
		}
	default: // wide local
		if int(a.Idx) < len(wideTemps) {
			wideTemps[a.Idx] = v
		}
	}
}

// putWideLinked is putWide for the linked executor, whose narrow
// destinations are direct state indices.
func putWideLinked(b *builder, a sim.WideOperand, v *term, pc int,
	wr func(uint32, *term, int), wideTemps []*term, st *threadState) {
	switch a.SpaceID() {
	case sim.WideSpaceNarr:
		w := a.Type.Width
		if w > 64 {
			w = 64
		}
		wr(a.Idx, b.narrowFromWide(v, w), pc)
	case sim.WideSpaceShad:
		if int(a.Idx) < len(st.wideShad) {
			st.wideShad[a.Idx] = v
			st.wideShadPC[a.Idx] = pc
		}
	default:
		if int(a.Idx) < len(wideTemps) {
			wideTemps[a.Idx] = v
		}
	}
}
