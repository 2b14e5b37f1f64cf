package sim

import (
	"fmt"
	"math"
	"sync"
	"unsafe"

	"repro/internal/bitvec"
	"repro/internal/costmodel"
)

// MemSpec describes one simulated memory word column. A memory wider than
// 64 bits is ⌈Width/64⌉ consecutive specs sharing one Name, Depth and
// Width: the first holds bits 0..63 of every element, the next 64..127, and
// so on, so every spec is a narrow []uint64 array.
type MemSpec struct {
	Name  string
	Depth int
	Width int // element width of the whole memory, not of this column
}

// PortSlot maps a top-level port to its storage: words(Width) consecutive
// global words, least significant first, starting at Slot.
type PortSlot struct {
	Name  string
	Width int
	Slot  uint32
}

// RegSlot maps a register to its storage for reset and inspection, laid out
// like a PortSlot.
type RegSlot struct {
	Name  string
	Width int
	Slot  uint32
	Init  bitvec.Vec
}

// words is the number of 64-bit words a value of width w occupies.
func words(w int) int { return bitvec.WordsFor(w) }

// SegmentWords is the alignment (in 64-bit words) of each thread's global
// register segment: 8 words = one 64-byte cache line, so no line is written
// by two threads (§5.2).
const SegmentWords = 8

// ThreadCode is the compiled program of one thread.
type ThreadCode struct {
	Code []Instr
	// NumTemps sizes the thread's private temp array.
	NumTemps int
	// ShadowWords is the shadow length; GlobalOff is where the thread's
	// segment begins in the global word array.
	ShadowWords int
	GlobalOff   int

	// Statistics for the cost model and the simulated host.
	Features  [costmodel.NumClasses]float64
	CostUnits int64 // predicted execution cost in model units
	Branches  int   // data-dependent branches (mux, mem enable)
}

// Program is a compiled simulator: thread code plus the global layout.
type Program struct {
	Design     string
	NumThreads int
	Threads    []ThreadCode

	GlobalWords int

	Imms []uint64
	Mems []MemSpec

	Inputs  []PortSlot
	Outputs []PortSlot
	Regs    []RegSlot

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

// Mem returns the index and spec of a named memory: for a memory wider than
// 64 bits, its least significant word column.
func (p *Program) Mem(name string) (index int, spec MemSpec, ok bool) {
	for i, m := range p.Mems {
		if m.Name == name {
			return i, m, true
		}
	}
	return 0, MemSpec{}, false
}

// Memories returns the index in Mems of each memory's first word column, in
// declaration order. A w-bit memory is words(w) consecutive columns sharing
// its name, depth and width; memory i spans columns Memories()[i] up to the
// next memory's first.
func (p *Program) Memories() []int {
	var firsts []int
	for i := 0; i < len(p.Mems); i += max(words(p.Mems[i].Width), 1) {
		firsts = append(firsts, i)
	}
	return firsts
}

// TotalInstrs counts instructions across all threads.
func (p *Program) TotalInstrs() int {
	n := 0
	for i := range p.Threads {
		n += len(p.Threads[i].Code)
	}
	return n
}

// String summarizes the program.
func (p *Program) String() string {
	return fmt.Sprintf("program %s: %d threads, %d instrs, %d global words, %d imms, %d mem columns",
		p.Design, p.NumThreads, p.TotalInstrs(), p.GlobalWords, len(p.Imms), len(p.Mems))
}

// MemBytes estimates the resident heap footprint of the compiled program:
// instruction streams, the constant pool, and the slot tables. The compile
// cache (internal/service) uses it as the LRU charge for an entry, so it
// intentionally counts only what the *program* pins — per-engine state
// (globalState, threadCtx) is charged to sessions, not to the cache.
func (p *Program) MemBytes() int64 {
	const (
		instrSize  = int64(unsafe.Sizeof(Instr{}))
		portSize   = int64(unsafe.Sizeof(PortSlot{}))
		regSize    = int64(unsafe.Sizeof(RegSlot{}))
		threadSize = int64(unsafe.Sizeof(ThreadCode{}))
	)
	n := int64(unsafe.Sizeof(Program{}))
	for t := range p.Threads {
		th := &p.Threads[t]
		n += threadSize
		n += int64(len(th.Code)) * instrSize
	}
	n += int64(len(p.Imms)) * 8
	for i := range p.Mems {
		n += int64(unsafe.Sizeof(MemSpec{})) + int64(len(p.Mems[i].Name))
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
// words, memories, and thread-private temps/shadows) — what one live
// session adds on top of the shared Program. An Engine over a
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
	for i := range p.Mems {
		n += int64(p.Mems[i].Depth) * 8
	}
	for t := range p.Threads {
		th := &p.Threads[t]
		n += int64(th.NumTemps)*8 + int64(th.ShadowWords)*8
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
	// Constant where the removed shared-slot flag was hashed: persisted
	// snapshots and native artifacts are keyed by this fingerprint.
	h.bool(false)
	h.u64(uint64(p.GlobalWords))
	h.u64(uint64(len(p.Imms)))
	for _, v := range p.Imms {
		h.u64(v)
	}
	h.u64(uint64(len(p.Mems)))
	for i := range p.Mems {
		m := &p.Mems[i]
		h.str(m.Name)
		h.u64(uint64(m.Depth))
		h.u64(uint64(m.Width))
	}
	for _, ps := range [2][]PortSlot{p.Inputs, p.Outputs} {
		h.u64(uint64(len(ps)))
		for _, s := range ps {
			h.str(s.Name)
			h.u64(uint64(s.Width))
			h.u64(uint64(s.Slot))
		}
	}
	h.u64(uint64(len(p.Regs)))
	for i := range p.Regs {
		r := &p.Regs[i]
		h.str(r.Name)
		h.u64(uint64(r.Width))
		h.u64(uint64(r.Slot))
		h.str(r.Init.String())
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
		h.u64(uint64(th.ShadowWords))
		h.u64(uint64(th.GlobalOff))
		// Constant where the removed per-vertex code offsets were hashed:
		// persisted snapshots and native artifacts are keyed by this
		// fingerprint.
		h.u64(0)
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
