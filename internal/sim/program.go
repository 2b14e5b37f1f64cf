package sim

import (
	"fmt"
	"math"
	"sync"
	"unsafe"

	"repro/internal/bitvec"
	"repro/internal/costmodel"
	"repro/internal/firrtl"
)

// wideSpace identifies where a wide operand lives.
type wideSpace uint8

const (
	wsWideLocal wideSpace = iota
	wsWideGlobal
	wsWideImm
	wsWideShadow
	wsNarrow // narrow operand encoded as a regular uint32 ref
)

// WideOperand locates one operand of a boxed wide node.
type WideOperand struct {
	Space wideSpace
	Idx   uint32 // index in the wide pool, or a narrow ref when Space==wsNarrow
	Type  firrtl.Type
}

// wideKind classifies boxed wide nodes.
type wideKind uint8

const (
	wkPrim wideKind = iota
	wkCopy
	wkConst
	wkMemRd
	wkMemWr
)

// WideNode is a circuit vertex executed through the boxed bitvec path
// (needed when its result or any operand exceeds 64 bits).
type WideNode struct {
	Kind   wideKind
	Op     firrtl.PrimOp
	Consts []int
	RType  firrtl.Type
	Args   []WideOperand
	Dst    WideOperand
	Mem    int
}

// MemSpec describes one simulated memory.
type MemSpec struct {
	Name  string
	Depth int
	Width int
	Wide  bool
}

// PortSlot maps a top-level port to its storage.
type PortSlot struct {
	Name  string
	Width int
	Wide  bool
	Slot  uint32 // narrow global word index, or wide global index
}

// RegSlot maps a register to its storage for reset and inspection.
type RegSlot struct {
	Name  string
	Width int
	Wide  bool
	Slot  uint32
	Init  bitvec.Vec
}

// SegmentWords is the alignment (in 64-bit words) of each thread's global
// register segment: 8 words = one 64-byte cache line, so no line is written
// by two threads (§5.2).
const SegmentWords = 8

// ThreadCode is the compiled program of one thread.
type ThreadCode struct {
	Code []Instr
	// NumTemps / NumWideTemps size the thread's private value arrays.
	NumTemps     int
	NumWideTemps int
	// ShadowWords is the narrow shadow length; GlobalOff is where the
	// thread's segment begins in the global word array.
	ShadowWords int
	GlobalOff   int
	// WideShadow maps shadow-wide indices to wide-global slots.
	WideShadowSlots []uint32
	WideShadowTypes []firrtl.Type

	// Marks, in Shared compilation mode, gives the code offset where each
	// of the thread's vertices begins (plus a final end-of-code mark), so a
	// task scheduler can slice the stream at vertex boundaries.
	Marks []int

	// Statistics for the cost model and the simulated host.
	Features  [costmodel.NumClasses]float64
	CostUnits int64 // predicted execution cost in model units
	Branches  int   // data-dependent branches (mux, mem enable)
}

// CodeBytes returns the thread's estimated compiled-code footprint.
func (t *ThreadCode) CodeBytes() int { return len(t.Code) * InstrBytes }

// Program is a compiled simulator: thread code plus the global layout.
type Program struct {
	Design     string
	NumThreads int
	// Shared records that the program was compiled in the Verilator-style
	// shared-slot model (Config.Shared): combinational values live in the
	// global word array and threads communicate mid-cycle. Static analyses
	// (internal/verify) use it to scope the RepCut race-freedom invariants,
	// which only the private-temp model promises.
	Shared  bool
	Threads []ThreadCode

	GlobalWords int
	GlobalWide  int

	Imms      []uint64
	WideImms  []bitvec.Vec
	Mems      []MemSpec
	WideNodes []WideNode

	Inputs  []PortSlot
	Outputs []PortSlot
	Regs    []RegSlot

	// WideWidths[i] is the bit width of wide-global slot i.
	WideWidths []int

	inputByName  map[string]int
	outputByName map[string]int
	regByName    map[string]int

	// linked caches the program's resolved execution form (link.go),
	// built on first engine construction and shared by every engine and
	// service session over this program. Not part of Fingerprint: it is
	// derived entirely from the fields above.
	linkMu sync.Mutex
	linked *LinkedProgram
}

// Input returns the slot of a named input port.
func (p *Program) Input(name string) (PortSlot, bool) {
	i, ok := p.inputByName[name]
	if !ok {
		return PortSlot{}, false
	}
	return p.Inputs[i], true
}

// Output returns the slot of a named output port.
func (p *Program) Output(name string) (PortSlot, bool) {
	i, ok := p.outputByName[name]
	if !ok {
		return PortSlot{}, false
	}
	return p.Outputs[i], true
}

// Reg returns the slot of a named register.
func (p *Program) Reg(name string) (RegSlot, bool) {
	i, ok := p.regByName[name]
	if !ok {
		return RegSlot{}, false
	}
	return p.Regs[i], true
}

// Mem returns the index and spec of a named memory.
func (p *Program) Mem(name string) (index int, spec MemSpec, ok bool) {
	for i, m := range p.Mems {
		if m.Name == name {
			return i, m, true
		}
	}
	return 0, MemSpec{}, false
}

// TotalInstrs counts instructions across all threads.
func (p *Program) TotalInstrs() int {
	n := 0
	for i := range p.Threads {
		n += len(p.Threads[i].Code)
	}
	return n
}

// String summarizes the program, including the wide pools that matter when
// debugging wide-heavy designs.
func (p *Program) String() string {
	return fmt.Sprintf("program %s: %d threads, %d instrs, %d global words (%d wide), %d imms (%d wide), %d mems",
		p.Design, p.NumThreads, p.TotalInstrs(), p.GlobalWords, p.GlobalWide,
		len(p.Imms), len(p.WideImms), len(p.Mems))
}

// MemBytes estimates the resident heap footprint of the compiled program:
// instruction streams, constant pools, wide-node descriptors, and the slot
// tables. The compile cache (internal/service) uses it as the LRU charge
// for an entry, so it intentionally counts only what the *program* pins —
// per-engine state (globalState, threadCtx) is charged to sessions, not to
// the cache.
func (p *Program) MemBytes() int64 {
	const (
		instrSize    = int64(unsafe.Sizeof(Instr{}))
		wideNodeSize = int64(unsafe.Sizeof(WideNode{}))
		operandSize  = int64(unsafe.Sizeof(WideOperand{}))
		portSize     = int64(unsafe.Sizeof(PortSlot{}))
		regSize      = int64(unsafe.Sizeof(RegSlot{}))
		threadSize   = int64(unsafe.Sizeof(ThreadCode{}))
	)
	n := int64(unsafe.Sizeof(Program{}))
	for t := range p.Threads {
		th := &p.Threads[t]
		n += threadSize
		n += int64(len(th.Code)) * instrSize
		n += int64(len(th.WideShadowSlots)) * 4
		n += int64(len(th.WideShadowTypes)) * int64(unsafe.Sizeof(firrtl.Type{}))
		n += int64(len(th.Marks)) * int64(unsafe.Sizeof(int(0)))
	}
	n += int64(len(p.Imms)) * 8
	for i := range p.WideImms {
		n += int64(unsafe.Sizeof(bitvec.Vec{})) + int64(len(p.WideImms[i].Words))*8
	}
	for i := range p.Mems {
		n += int64(unsafe.Sizeof(MemSpec{})) + int64(len(p.Mems[i].Name))
	}
	for i := range p.WideNodes {
		wn := &p.WideNodes[i]
		n += wideNodeSize
		n += int64(len(wn.Args)) * operandSize
		n += int64(len(wn.Consts)) * int64(unsafe.Sizeof(int(0)))
	}
	for _, ps := range [2][]PortSlot{p.Inputs, p.Outputs} {
		for i := range ps {
			n += portSize + int64(len(ps[i].Name))
		}
	}
	for i := range p.Regs {
		r := &p.Regs[i]
		n += regSize + int64(len(r.Name)) + int64(len(r.Init.Words))*8
	}
	n += int64(len(p.WideWidths)) * int64(unsafe.Sizeof(int(0)))
	for name := range p.inputByName {
		n += int64(len(name)) + 16
	}
	for name := range p.outputByName {
		n += int64(len(name)) + 16
	}
	for name := range p.regByName {
		n += int64(len(name)) + 16
	}
	p.linkMu.Lock()
	lp := p.linked
	p.linkMu.Unlock()
	if lp != nil {
		n += lp.MemBytes()
	}
	return n
}

// StateBytes estimates the per-engine mutable state footprint (global
// words, wide values, memories, and thread-private temps/shadows) — what
// one live session adds on top of the shared Program. An Engine over a
// multi-threaded program keeps two views of all of it.
func (p *Program) StateBytes() int64 {
	return int64(p.stateViews()) * p.viewBytes()
}

// stateViews is how many complete views of the state an Engine keeps: the
// serial engine updates one in place, the parallel engine alternates
// between two.
func (p *Program) stateViews() int { return min(p.NumThreads, 2) }

// viewBytes is the footprint of one state view (one batch lane holds one).
func (p *Program) viewBytes() int64 {
	n := int64(p.GlobalWords) * 8
	for _, w := range p.WideWidths {
		n += int64(bitvec.WordsFor(w)) * 8
	}
	for i := range p.Mems {
		words := int64(bitvec.WordsFor(p.Mems[i].Width))
		if !p.Mems[i].Wide {
			words = 1
		}
		n += int64(p.Mems[i].Depth) * words * 8
	}
	for t := range p.Threads {
		th := &p.Threads[t]
		n += int64(th.NumTemps)*8 + int64(th.ShadowWords)*8
		n += int64(th.NumWideTemps+len(th.WideShadowSlots)) * 16
	}
	return n
}

// Fingerprint hashes every observable part of the compiled program (code,
// layout, constant pools, statistics) into one value. Two programs with the
// same fingerprint execute identically; determinism tests compare
// fingerprints across worker counts and repeated compiles.
func (p *Program) Fingerprint() uint64 {
	h := fnv{1469598103934665603}
	h.str(p.Design)
	h.u64(uint64(p.NumThreads))
	h.bool(p.Shared)
	h.u64(uint64(p.GlobalWords))
	h.u64(uint64(p.GlobalWide))
	h.u64(uint64(len(p.Imms)))
	for _, v := range p.Imms {
		h.u64(v)
	}
	h.u64(uint64(len(p.WideImms)))
	for i := range p.WideImms {
		h.str(p.WideImms[i].String())
	}
	h.u64(uint64(len(p.Mems)))
	for i := range p.Mems {
		m := &p.Mems[i]
		h.str(m.Name)
		h.u64(uint64(m.Depth))
		h.u64(uint64(m.Width))
		h.bool(m.Wide)
	}
	h.u64(uint64(len(p.WideNodes)))
	for i := range p.WideNodes {
		h.wideNode(&p.WideNodes[i])
	}
	for _, ps := range [2][]PortSlot{p.Inputs, p.Outputs} {
		h.u64(uint64(len(ps)))
		for _, s := range ps {
			h.str(s.Name)
			h.u64(uint64(s.Width))
			h.bool(s.Wide)
			h.u64(uint64(s.Slot))
		}
	}
	h.u64(uint64(len(p.Regs)))
	for i := range p.Regs {
		r := &p.Regs[i]
		h.str(r.Name)
		h.u64(uint64(r.Width))
		h.bool(r.Wide)
		h.u64(uint64(r.Slot))
		h.str(r.Init.String())
	}
	h.u64(uint64(len(p.WideWidths)))
	for _, w := range p.WideWidths {
		h.u64(uint64(w))
	}
	h.u64(uint64(len(p.Threads)))
	for t := range p.Threads {
		th := &p.Threads[t]
		h.u64(uint64(len(th.Code)))
		for _, in := range th.Code {
			h.u64(uint64(in.Op))
			h.u64(uint64(in.Dst))
			h.u64(uint64(in.A))
			h.u64(uint64(in.B))
			h.u64(uint64(in.C))
			h.u64(uint64(in.Aux))
			h.u64(in.Mask)
		}
		h.u64(uint64(th.NumTemps))
		h.u64(uint64(th.NumWideTemps))
		h.u64(uint64(th.ShadowWords))
		h.u64(uint64(th.GlobalOff))
		h.u64(uint64(len(th.WideShadowSlots)))
		for _, s := range th.WideShadowSlots {
			h.u64(uint64(s))
		}
		for _, ty := range th.WideShadowTypes {
			h.u64(uint64(ty.Kind))
			h.u64(uint64(ty.Width))
		}
		h.u64(uint64(len(th.Marks)))
		for _, m := range th.Marks {
			h.u64(uint64(m))
		}
		for _, f := range th.Features {
			h.u64(math.Float64bits(f))
		}
		h.u64(uint64(th.CostUnits))
		h.u64(uint64(th.Branches))
	}
	return h.h
}

// fnv is a tiny FNV-1a accumulator used by Fingerprint.
type fnv struct{ h uint64 }

func (f *fnv) u64(v uint64) {
	for i := 0; i < 8; i++ {
		f.h ^= v & 0xff
		f.h *= 1099511628211
		v >>= 8
	}
}

func (f *fnv) str(s string) {
	f.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		f.h ^= uint64(s[i])
		f.h *= 1099511628211
	}
}

func (f *fnv) bool(b bool) {
	if b {
		f.u64(1)
	} else {
		f.u64(0)
	}
}

func (f *fnv) wideNode(wn *WideNode) {
	f.u64(uint64(wn.Kind))
	f.u64(uint64(wn.Op))
	f.u64(uint64(len(wn.Consts)))
	for _, c := range wn.Consts {
		f.u64(uint64(c))
	}
	f.u64(uint64(wn.RType.Kind))
	f.u64(uint64(wn.RType.Width))
	f.u64(uint64(len(wn.Args)))
	for i := range wn.Args {
		f.wideOperand(&wn.Args[i])
	}
	f.wideOperand(&wn.Dst)
	f.u64(uint64(wn.Mem))
}

func (f *fnv) wideOperand(a *WideOperand) {
	f.u64(uint64(a.Space))
	f.u64(uint64(a.Idx))
	f.u64(uint64(a.Type.Kind))
	f.u64(uint64(a.Type.Width))
}
