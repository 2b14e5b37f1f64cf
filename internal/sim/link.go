package sim

import (
	"slices"
	"sort"
)

// This file implements the link stage, the last step of Compile: resolving
// the compiler's tagged instruction buffers into the execution form a
// Program stores, where every narrow operand is a direct index into one
// flat per-engine state slice, so no read or write pays a per-operand
// closure call or tag switch. The tagged buffers are dropped after:
// Fingerprint hashes the linked code itself.
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

// LinkStats summarizes one link run. Linking is 1:1, so the two counts are
// always equal.
//
// Deprecated: kept, with LinkedProgram and Linked, only because
// bench/layers.go reads them (the sim.link_ms, sim.linked_instrs and
// sim.fusion_rate rows) and bench/ is frozen between benchmark changes; the
// next change to bench/ deletes the three and those rows together.
type LinkStats struct {
	Instrs int // program instructions in (all threads)
	Linked int // linked instructions out
}

// FusionRate is identically 0: superinstruction fusion was removed.
func (s *LinkStats) FusionRate() float64 { return 0 }

// LinkedProgram is a Program beside its link statistics.
//
// Deprecated: a Program is its linked form; see LinkStats.
type LinkedProgram struct {
	*Program
	Stats LinkStats
}

// Linked returns p with its link statistics.
//
// Deprecated: read the Program itself; see LinkStats.
func (p *Program) Linked() *LinkedProgram {
	n := p.TotalInstrs()
	return &LinkedProgram{Program: p, Stats: LinkStats{Instrs: n, Linked: n}}
}

// link lays out p's unified state and resolves every operand of the tagged
// buffers code (one per thread) into each thread's Code. The mapping is
// strictly 1:1, so a pc indexes the buffer and the linked code alike.
func (p *Program) link(code [][]instr) {
	p.layoutFrames()
	for t := range p.Threads {
		p.Threads[t].Code = p.translate(t, code[t])
	}
	p.Exchange = p.exchange()
}

// layoutFrames places the immediates after the globals and each thread's
// frame after them, every region padded to SegmentWords: ImmOff, every
// thread's TempOff, ShadowOff and End, and StateWords follow from the
// global, immediate, temp and shadow sizes alone.
func (p *Program) layoutFrames() {
	off := padTo(uint32(p.GlobalWords), SegmentWords)
	p.ImmOff = int(off)
	off = padTo(off+uint32(len(p.Imms)), SegmentWords)
	for t := range p.Threads {
		th := &p.Threads[t]
		th.TempOff = off
		th.ShadowOff = off + uint32(th.NumTemps)
		off = padTo(th.ShadowOff+uint32(th.ShadowWords), SegmentWords)
		th.End = off
	}
	p.StateWords = int(off)
}

// translate resolves one thread's operands.
func (p *Program) translate(t int, code []instr) []LInstr {
	th := &p.Threads[t]
	resolve := func(ref uint32) uint32 {
		idx := refIdx(ref)
		switch refTag(ref) {
		case refLocal:
			return th.TempOff + idx
		case refGlobal:
			return idx
		case refImm:
			return uint32(p.ImmOff) + idx
		default: // refShadow
			return th.ShadowOff + idx
		}
	}
	out := make([]LInstr, len(code))
	for pc, in := range code {
		ops := mapOperands(in.Op, [4]uint32{in.Dst, in.A, in.B, in.C}, resolve)
		out[pc] = LInstr{Op: in.Op, Dst: ops[0], A: ops[1], B: ops[2], C: ops[3], Aux: in.Aux, Mask: in.Mask}
	}
	return out
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
func (p *Program) exchange() [][][]uint32 {
	owner := p.segmentOwners()
	x := make([][][]uint32, len(p.Threads))
	for w := range x {
		x[w] = make([][]uint32, len(p.Threads))
	}
	var nuses []uint32
	for r := range p.Threads {
		seen := make(map[uint32]bool)
		for pc := range p.Threads[r].Code {
			_, nuses, _, _ = p.LinkedDefUse(&p.Threads[r].Code[pc], nil, nuses[:0], nil, nil)
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
func (p *Program) ExchangeWords() []int {
	n := make([]int, len(p.Threads))
	for w := range p.Exchange {
		for r, words := range p.Exchange[w] {
			n[r] += len(words)
		}
	}
	return n
}

// LinkedLoc decodes a unified-state index back into the space-relative
// location it aliases plus the owning thread (-1 for globals and
// immediates). ok is false for padding words no region owns.
func (p *Program) LinkedLoc(idx uint32) (loc Loc, thread int, ok bool) {
	if int(idx) < p.GlobalWords {
		return Loc{SpaceGlobal, idx}, -1, true
	}
	if int(idx) >= p.ImmOff && int(idx) < p.ImmOff+len(p.Imms) {
		return Loc{SpaceImm, idx - uint32(p.ImmOff)}, -1, true
	}
	// Find the last thread whose frame starts at or before idx.
	t := sort.Search(len(p.Threads), func(i int) bool {
		return p.Threads[i].TempOff > idx
	}) - 1
	if t < 0 {
		return Loc{}, -1, false
	}
	th := &p.Threads[t]
	switch {
	case idx < th.ShadowOff:
		return Loc{SpaceLocal, idx - th.TempOff}, t, true
	case int(idx) < int(th.ShadowOff)+th.ShadowWords:
		return Loc{SpaceShadow, idx - th.ShadowOff}, t, true
	}
	return Loc{}, -1, false
}

// LinkedDefUse appends one linked instruction's defs/uses of state words
// (as unified-state indices) and of memories (as SpaceMem locations, which
// have no flat index) to the given slices, returning the extended slices
// (pass nil or recycled slices; the same Program can be analyzed from many
// goroutines). Memory writes def the whole memory: the write is
// buffered during evaluation and only published in the commit phase.
// internal/verify's scan is built on it.
func (p *Program) LinkedDefUse(in *LInstr, ndefs, nuses []uint32, mdefs, muses []Loc) ([]uint32, []uint32, []Loc, []Loc) {
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
