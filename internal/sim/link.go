package sim

import (
	"slices"
	"sort"
)

// This file implements the link stage, the last step of Compile: resolving
// the compiler's tagged instruction buffers into the execution form a
// Program stores, where every narrow operand is a direct index into one
// flat per-engine state slice, so no read or write pays a per-operand
// closure call or tag switch. The tagged buffers are dropped after; tagged
// rebuilds one instruction of them for Fingerprint and the wire form.
//
// Unified state layout (all regions padded to SegmentWords so no cache line
// is written by two threads):
//
//	[ globals | imms (read-only copy) | frame 0 | frame 1 | ... ]
//	                                     └ temps ┆ shadow ┘
//
// gs.words and each thread's temps/shadow become subslices of the one
// state array, so the commit memcpy, Reset and Poke/Peek keep their
// existing shapes. The alternative views-table layout
// (st := views[tag][idx]) still pays a tag extraction plus a second
// dependent load per operand; BenchmarkOperandResolution in
// link_bench_test.go records the bake-off that picked the flat frame.

// LInstr is one linked instruction: an instr whose operand fields are
// direct indices into the engine's unified state slice. 32 bytes, two per
// cache line.
type LInstr struct {
	Op   OpCode
	Dst  uint32
	A    uint32
	B    uint32
	C    uint32
	Aux  uint32 // shift amount / cat low-width / mem index
	Mask uint64
}

// LinkedThread is the linked form of one thread's code plus its frame
// placement in the unified state slice.
type LinkedThread struct {
	Code []LInstr
	// TempOff/ShadowOff locate the thread's frame: temps occupy
	// [TempOff, ShadowOff), shadow [ShadowOff, ShadowOff+ShadowWords).
	TempOff   uint32
	ShadowOff uint32
	// End is the end of the frame padded to SegmentWords. The prefix
	// [0, End) holds the globals, the immediates and this thread's frame:
	// every index its code uses, so it is the thread's private state
	// array in a multi-threaded Engine.
	End uint32
}

// LinkStats summarizes one link run. Linking is 1:1, so the two counts are
// always equal; both fields and FusionRate remain only because
// bench/layers.go reads them (the sim.linked_instrs and sim.fusion_rate
// rows) and bench/ is frozen between benchmark PRs. The next benchmark PR
// drops the row and this method together (ROADMAP item 8).
type LinkStats struct {
	Instrs int // program instructions in (all threads)
	Linked int // linked instructions out
}

// FusionRate is identically 0: superinstruction fusion was removed.
func (s *LinkStats) FusionRate() float64 { return 0 }

// LinkedProgram is the resolved execution form of a Program: its only
// stored code. It is immutable after link and shared by every engine (and
// every service session) over the same Program; per-engine mutable state
// is just the flat []uint64 of StateWords words.
type LinkedProgram struct {
	prog *Program

	// StateWords is the length of the unified state slice; ImmOff is where
	// the read-only immediate copy begins.
	StateWords int
	ImmOff     int

	Threads []LinkedThread

	// Exchange[w][r] lists, sorted, the global words of writer w's segment
	// that reader r's code reads: the words a multi-threaded Engine copies
	// from w's private array into r's every cycle. Exchange[t][t] is empty.
	Exchange [][][]uint32

	Stats LinkStats
}

// Program returns the program this linked form was built from.
func (lp *LinkedProgram) Program() *Program { return lp.prog }

// Linked returns the program's code in its linked execution form, which
// Compile or DecodeProgram built; it is never nil.
func (p *Program) Linked() *LinkedProgram { return p.linked }

// link lays out p's unified state and resolves every operand of the tagged
// buffers code (one per thread) into p's linked form. The mapping is
// strictly 1:1, so a pc indexes the buffer and the linked code alike.
func (p *Program) link(code [][]instr) {
	lp := &LinkedProgram{prog: p}
	off := padTo(uint32(p.GlobalWords), SegmentWords)
	lp.ImmOff = int(off)
	off = padTo(off+uint32(len(p.Imms)), SegmentWords)
	lp.Threads = make([]LinkedThread, len(p.Threads))
	for t := range p.Threads {
		th := &p.Threads[t]
		lt := &lp.Threads[t]
		lt.TempOff = off
		lt.ShadowOff = off + uint32(th.NumTemps)
		off = padTo(lt.ShadowOff+uint32(th.ShadowWords), SegmentWords)
		lt.End = off
	}
	lp.StateWords = int(off)

	n := 0
	for t := range p.Threads {
		lp.Threads[t].Code = lp.translate(t, code[t])
		n += len(code[t])
	}
	lp.Exchange = lp.exchange()
	lp.Stats = LinkStats{Instrs: n, Linked: n}
	p.linked = lp
}

// translate resolves one thread's operands.
func (lp *LinkedProgram) translate(t int, code []instr) []LInstr {
	lt := &lp.Threads[t]
	resolve := func(ref uint32) uint32 {
		idx := refIdx(ref)
		switch refTag(ref) {
		case refLocal:
			return lt.TempOff + idx
		case refGlobal:
			return idx
		case refImm:
			return uint32(lp.ImmOff) + idx
		default: // refShadow
			return lt.ShadowOff + idx
		}
	}
	out := make([]LInstr, len(code))
	for pc, in := range code {
		ops := mapOperands(in.Op, [4]uint32{in.Dst, in.A, in.B, in.C}, resolve)
		out[pc] = LInstr{Op: in.Op, Dst: ops[0], A: ops[1], B: ops[2], C: ops[3], Aux: in.Aux, Mask: in.Mask}
	}
	return out
}

// tagged is the inverse of translate: the tagged instruction that li was
// resolved from. Each operand maps back through LinkedLoc to the region its
// index lies in: the globals, the immediates, or its thread's temps or
// shadow.
func (lp *LinkedProgram) tagged(li *LInstr) instr {
	ops := mapOperands(li.Op, [4]uint32{li.Dst, li.A, li.B, li.C}, func(idx uint32) uint32 {
		loc, _, _ := lp.LinkedLoc(idx)
		return makeRef(uint32(loc.Space)<<refTagShift, loc.Idx)
	})
	return instr{Op: li.Op, Dst: ops[0], A: ops[1], B: ops[2], C: ops[3], Aux: li.Aux, Mask: li.Mask}
}

// mapOperands maps the operand fields (Dst, A, B, C) that opcode op uses
// through f, and zeroes the fields it does not use.
func mapOperands(op OpCode, ops [4]uint32, f func(uint32) uint32) [4]uint32 {
	var out [4]uint32
	for k := range ops {
		if k == 0 && definesDst(op) || k > 0 && k <= TraitsOf(op).Reads {
			out[k] = f(ops[k])
		}
	}
	return out
}

// exchange computes the Exchange table from the linked streams' reads.
func (lp *LinkedProgram) exchange() [][][]uint32 {
	p := lp.prog
	owner := p.segmentOwners()
	x := make([][][]uint32, len(p.Threads))
	for w := range x {
		x[w] = make([][]uint32, len(p.Threads))
	}
	var nuses []uint32
	for r := range lp.Threads {
		seen := make(map[uint32]bool)
		for pc := range lp.Threads[r].Code {
			_, nuses, _, _ = lp.LinkedDefUse(&lp.Threads[r].Code[pc], nil, nuses[:0], nil, nil)
			for _, idx := range nuses {
				if int(idx) < len(owner) && owner[idx] >= 0 && owner[idx] != r && !seen[idx] {
					seen[idx] = true
					x[owner[idx]][r] = append(x[owner[idx]][r], idx)
				}
			}
		}
		for w := range x {
			slices.Sort(x[w][r])
		}
	}
	return x
}

// ExchangeWords returns, per reader thread, how many words it copies in
// from other threads' segments each cycle.
func (lp *LinkedProgram) ExchangeWords() []int {
	n := make([]int, len(lp.Threads))
	for w := range lp.Exchange {
		for r, words := range lp.Exchange[w] {
			n[r] += len(words)
		}
	}
	return n
}

// LinkedLoc decodes a unified-state index back into the space-relative
// location it aliases plus the owning thread (-1 for globals and
// immediates). ok is false for padding words no region owns.
func (lp *LinkedProgram) LinkedLoc(idx uint32) (loc Loc, thread int, ok bool) {
	p := lp.prog
	if int(idx) < p.GlobalWords {
		return Loc{SpaceGlobal, idx}, -1, true
	}
	if int(idx) >= lp.ImmOff && int(idx) < lp.ImmOff+len(p.Imms) {
		return Loc{SpaceImm, idx - uint32(lp.ImmOff)}, -1, true
	}
	// Find the last thread whose frame starts at or before idx.
	t := sort.Search(len(lp.Threads), func(i int) bool {
		return lp.Threads[i].TempOff > idx
	}) - 1
	if t < 0 {
		return Loc{}, -1, false
	}
	lt := &lp.Threads[t]
	th := &p.Threads[t]
	switch {
	case idx < lt.ShadowOff:
		return Loc{SpaceLocal, idx - lt.TempOff}, t, true
	case int(idx) < int(lt.ShadowOff)+th.ShadowWords:
		return Loc{SpaceShadow, idx - lt.ShadowOff}, t, true
	}
	return Loc{}, -1, false
}

// LinkedDefUse appends one linked instruction's defs/uses of state words
// (as unified-state indices) and of memories (as SpaceMem locations, which
// have no flat index) to the given slices, returning the extended slices
// (pass nil or recycled slices; the same LinkedProgram can be analyzed from
// many goroutines). Memory writes def the whole memory: the write is
// buffered during evaluation and only published in the commit phase.
// internal/verify's scan is built on it.
func (lp *LinkedProgram) LinkedDefUse(in *LInstr, ndefs, nuses []uint32, mdefs, muses []Loc) ([]uint32, []uint32, []Loc, []Loc) {
	refs := [3]uint32{in.A, in.B, in.C}
	nuses = append(nuses, refs[:TraitsOf(in.Op).Reads]...)
	if definesDst(in.Op) {
		ndefs = append(ndefs, in.Dst)
	}
	switch in.Op {
	case OpMemRd:
		muses = append(muses, Loc{SpaceMem, in.Aux})
	case OpMemWr:
		mdefs = append(mdefs, Loc{SpaceMem, in.Aux})
	}
	return ndefs, nuses, mdefs, muses
}
