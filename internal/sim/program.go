package sim

import (
	"fmt"
	"math"
	"slices"
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

// ThreadCode is one thread's linked code, its layout and its statistics.
type ThreadCode struct {
	// Code is the thread's linked instruction stream (link.go).
	Code []LInstr
	// NumTemps sizes the thread's private temp array.
	NumTemps int
	// ShadowWords is the shadow length; GlobalOff is where the thread's
	// segment begins in the global word array.
	ShadowWords int
	GlobalOff   int
	// TempOff/ShadowOff locate the thread's frame in the unified state:
	// temps occupy [TempOff, ShadowOff), shadow [ShadowOff,
	// ShadowOff+ShadowWords). End is the end of the frame padded to
	// SegmentWords. The prefix [0, End) holds the globals, the immediates
	// and this frame: every index Code uses, so it is the thread's private
	// state array in a multi-threaded Engine.
	TempOff   uint32
	ShadowOff uint32
	End       uint32

	// Statistics for the cost model and the simulated host.
	Features  [costmodel.NumClasses]float64
	CostUnits int64 // predicted execution cost in model units
	Branches  int   // data-dependent branches (mux, mem enable)
}

// Program is a compiled simulator: every thread's linked code over one
// unified state layout, and the exchange between threads. Compile and
// DecodeProgram build it, and it is not mutated after; every engine and
// service session over it shares it, and Fingerprint is computed with it.
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

	// StateWords is the length of the unified state slice; ImmOff is where
	// the read-only immediate copy begins.
	StateWords int
	ImmOff     int

	// Exchange[w][r] lists, sorted, the global words of writer w's segment
	// that reader r's code reads: the words a multi-threaded Engine copies
	// from w's private array into r's every cycle. Exchange[t][t] is empty.
	Exchange [][][]uint32

	inputByName  map[string]int
	outputByName map[string]int
	regByName    map[string]int

	// fp is Fingerprint, computed when the program is linked.
	fp uint64
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
// the linked code and exchange table, the constant pool, and the slot
// tables. The compile cache (internal/service) uses it as the LRU charge
// for an entry, so it intentionally counts only what the *program* pins —
// per-engine state (globalState, threadCtx) is charged to sessions, not to
// the cache.
func (p *Program) MemBytes() int64 {
	const (
		portSize = int64(unsafe.Sizeof(PortSlot{}))
		regSize  = int64(unsafe.Sizeof(RegSlot{}))
	)
	n := int64(unsafe.Sizeof(Program{})) + int64(len(p.Threads))*int64(unsafe.Sizeof(ThreadCode{}))
	for t := range p.Threads {
		n += int64(len(p.Threads[t].Code)) * int64(unsafe.Sizeof(LInstr{}))
	}
	for w := range p.Exchange {
		for _, words := range p.Exchange[w] {
			n += int64(unsafe.Sizeof(words)) + int64(len(words))*4
		}
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
	for _, byName := range [3]map[string]int{p.inputByName, p.outputByName, p.regByName} {
		for name := range byName {
			n += int64(len(name)) + 16
		}
	}
	return n
}

// segmentOwners maps each global word to the thread whose commit writes it
// (the thread's segment [GlobalOff, GlobalOff+ShadowWords)), or -1 for
// words no segment holds (inputs, padding).
func (p *Program) segmentOwners() []int {
	owner := make([]int, p.GlobalWords)
	for i := range owner {
		owner[i] = -1
	}
	for t := range p.Threads {
		th := &p.Threads[t]
		for i := th.GlobalOff; i < th.GlobalOff+th.ShadowWords && i < len(owner); i++ {
			owner[i] = t
		}
	}
	return owner
}

// StateBytes estimates one Engine's mutable state — what one live session
// adds on top of the shared Program: every thread's private array (the
// prefix of the unified layout it evaluates over), its own copy of every
// memory column it holds (memHolders) and the exchange buffers (two
// parities per writer and reader).
func (p *Program) StateBytes() int64 {
	var n int64
	holds, _ := p.memHolders()
	for t := range p.Threads {
		n += int64(p.Threads[t].End) * 8
		for m, held := range holds[t] {
			if held {
				n += int64(p.Mems[m].Depth) * 8
			}
		}
	}
	for w := range p.Exchange {
		for _, words := range p.Exchange[w] {
			n += 2 * int64(exchangeBufWords(len(words))) * 8
		}
	}
	return n
}

// memHolders reports which memory columns each thread of an Engine keeps
// its own copy of: holds[t][m] when thread t's linked code reads or writes
// column m, and for thread 0 also every column no thread touches (a memory
// without ports, or whose only read was optimised away), so every column
// has a copy to peek and snapshot. writers[t] lists, in thread order, the
// threads whose code writes a column t holds: the write buffers t applies
// to its copies each cycle.
func (p *Program) memHolders() (holds [][]bool, writers [][]int) {
	holds = make([][]bool, len(p.Threads))
	written := make([][]uint32, len(p.Threads)) // the columns each thread writes
	for t := range p.Threads {
		holds[t] = make([]bool, len(p.Mems))
		for _, in := range p.Threads[t].Code {
			if in.Op == OpMemRd || in.Op == OpMemWr {
				holds[t][in.Aux] = true
			}
			if in.Op == OpMemWr {
				written[t] = append(written[t], in.Aux)
			}
		}
	}
	for m := range p.Mems {
		holds[0][m] = holds[0][m] || !slices.ContainsFunc(holds, func(h []bool) bool { return h[m] })
	}
	writers = make([][]int, len(p.Threads))
	for t := range holds {
		for w := range written {
			if slices.ContainsFunc(written[w], func(m uint32) bool { return holds[t][m] }) {
				writers[t] = append(writers[t], w)
			}
		}
	}
	return holds, writers
}

// memBytes is the footprint of one copy of the memories.
func (p *Program) memBytes() int64 {
	var n int64
	for i := range p.Mems {
		n += int64(p.Mems[i].Depth) * 8
	}
	return n
}

// Fingerprint hashes every observable part of the compiled program (the
// linked code, the layout sizes it follows from, constant pools,
// statistics) into one value. Two programs with the same fingerprint
// execute identically; persisted snapshots and native artifacts are keyed
// by it, and determinism tests compare it across worker counts and
// repeated compiles. It is computed once, when the program is linked or
// decoded.
func (p *Program) Fingerprint() uint64 { return p.fp }

// fingerprint computes Fingerprint. It hashes each linked instruction as
// it runs; its operands are indices into the layout that layoutFrames
// derives from the global, immediate, temp and shadow sizes hashed here.
func (p *Program) fingerprint() uint64 {
	h := fnv{1469598103934665603}
	h.str(p.Design)
	h.u64(uint64(p.NumThreads))
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
		for i := range th.Code {
			in := &th.Code[i]
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
	h := f.h // a local, so the byte chain stays in a register
	for i := 0; i < 8; i++ {
		h = (h ^ v&0xff) * 1099511628211
		v >>= 8
	}
	f.h = h
}

func (f *fnv) str(s string) {
	f.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		f.h ^= uint64(s[i])
		f.h *= 1099511628211
	}
}
