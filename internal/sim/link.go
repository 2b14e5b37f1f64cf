package sim

import (
	"sort"
	"unsafe"
)

// This file implements the link stage: lowering a compiled Program into a
// resolved execution form where every narrow operand is a direct index into
// one flat per-engine state slice, so no read or write pays a per-operand
// closure call or RefTag switch.
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

// LInstr is one linked instruction: an Instr whose operand fields are
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

// LinkedProgram is the resolved execution form of a Program. It is
// immutable after link and shared by every engine (and every service
// session) over the same Program; per-engine mutable state is just the
// flat []uint64 of StateWords words.
type LinkedProgram struct {
	prog *Program

	// StateWords is the length of the unified state slice; ImmOff is where
	// the read-only immediate copy begins.
	StateWords int
	ImmOff     int

	Threads []LinkedThread

	Stats LinkStats
}

// Program returns the program this linked form was built from.
func (lp *LinkedProgram) Program() *Program { return lp.prog }

// Linked returns the program's linked execution form, building it on first
// use. The result depends only on the Program, so it is computed once and
// shared by all engines and sessions.
func (p *Program) Linked() *LinkedProgram {
	p.linkMu.Lock()
	defer p.linkMu.Unlock()
	if p.linked == nil {
		p.linked = link(p)
	}
	return p.linked
}

// resolve maps a narrow operand reference of thread t to its state index.
func (lp *LinkedProgram) resolve(t int, ref uint32) uint32 {
	idx := RefIdx(ref)
	switch RefTag(ref) {
	case RefLocal:
		return lp.Threads[t].TempOff + idx
	case RefGlobal:
		return idx
	case RefImm:
		return uint32(lp.ImmOff) + idx
	default: // RefShadow
		return lp.Threads[t].ShadowOff + idx
	}
}

// link lowers p: lay out the unified state and resolve every operand.
// The mapping is strictly 1:1 for every program, so pcs index Program and
// LinkedProgram code alike.
func link(p *Program) *LinkedProgram {
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
	}
	lp.StateWords = int(off)

	for t := range p.Threads {
		lp.Threads[t].Code = lp.translate(t, &p.Threads[t])
	}
	n := p.TotalInstrs()
	lp.Stats = LinkStats{Instrs: n, Linked: n}
	return lp
}

// translate resolves one thread's operands.
func (lp *LinkedProgram) translate(t int, th *ThreadCode) []LInstr {
	out := make([]LInstr, len(th.Code))
	for pc := range th.Code {
		in := &th.Code[pc]
		li := &out[pc]
		li.Op = in.Op
		li.Aux = in.Aux
		li.Mask = in.Mask
		switch in.Op {
		case OpNop:
		case OpMemWr:
			li.A = lp.resolve(t, in.A)
			li.B = lp.resolve(t, in.B)
			li.C = lp.resolve(t, in.C)
		default:
			switch TraitsOf(in.Op).Reads {
			case 3:
				li.C = lp.resolve(t, in.C)
				fallthrough
			case 2:
				li.B = lp.resolve(t, in.B)
				fallthrough
			case 1:
				li.A = lp.resolve(t, in.A)
			}
			li.Dst = lp.resolve(t, in.Dst)
		}
	}
	return out
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
	switch in.Op {
	case OpNop:
	case OpMemRd:
		nuses = append(nuses, in.A)
		muses = append(muses, Loc{SpaceMem, in.Aux})
		ndefs = append(ndefs, in.Dst)
	case OpMemWr:
		nuses = append(nuses, in.A, in.B, in.C)
		mdefs = append(mdefs, Loc{SpaceMem, in.Aux})
	default:
		refs := [3]uint32{in.A, in.B, in.C}
		for k := 0; k < TraitsOf(in.Op).Reads; k++ {
			nuses = append(nuses, refs[k])
		}
		ndefs = append(ndefs, in.Dst)
	}
	return ndefs, nuses, mdefs, muses
}

// MemBytes estimates the resident footprint the linked form adds on top of
// the Program; Program.MemBytes includes it once the program is linked, so
// the service compile cache charges linked bytes to its LRU budget.
func (lp *LinkedProgram) MemBytes() int64 {
	const (
		lInstrSize = int64(unsafe.Sizeof(LInstr{}))
		threadSize = int64(unsafe.Sizeof(LinkedThread{}))
	)
	n := int64(unsafe.Sizeof(LinkedProgram{}))
	for t := range lp.Threads {
		n += threadSize + int64(len(lp.Threads[t].Code))*lInstrSize
	}
	return n
}
