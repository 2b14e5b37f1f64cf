package sim

import (
	"fmt"

	"repro/internal/bitvec"
)

// memWrite is one buffered memory write.
type memWrite struct {
	mem  uint32
	addr uint64
	data uint64
}

// threadCtx is one thread's runtime context: its memory-write buffers.
type threadCtx struct {
	// memBuf collects the cycle's memory writes. An Engine evaluates cycle
	// c into wbuf[c mod 2], which other threads apply after the barrier;
	// a batch lane uses memBuf alone.
	memBuf []memWrite
	wbuf   [2][]memWrite
	// pad rounds the struct up to a whole number of 64-byte cache lines so
	// contiguously stored threadCtx values never share a line (three slice
	// headers = 72 bytes; +56 = 128 = 2 lines). A test asserts the size
	// stays a multiple of 64 if fields change.
	_ [7]uint64
}

// globalState is one simulation's view of the state: the words of the
// unified linked layout (link.go) plus the memories. Word i lives at
// words[i*stride+lane] — stride 1, lane 0 over an engine thread's private
// array (a prefix of the layout); stride BatchWidth and the lane index over
// a batch engine's SoA array, where the lanes' words interleave.
type globalState struct {
	words        []uint64
	stride, lane int
	mems         [][]uint64
}

// at addresses state word i.
func (gs *globalState) at(i uint32) *uint64 { return &gs.words[int(i)*gs.stride+gs.lane] }

// vec gathers the width-bit value stored in the words from slot on.
func (gs *globalState) vec(slot uint32, width int) bitvec.Vec {
	v := bitvec.New(width)
	for k := range v.Words {
		v.Words[k] = *gs.at(slot + uint32(k))
	}
	return v
}

// setVec scatters v, canonicalized to width bits, into the words from slot
// on.
func (gs *globalState) setVec(slot uint32, width int, v bitvec.Vec) {
	for k, w := range bitvec.ZeroExtend(width, v).Words {
		*gs.at(slot + uint32(k)) = w
	}
}

// pokeInput sets a narrow input port, masked to its width: the PokeInput of
// every engine tier (Engine calls it once per thread's array).
func (gs *globalState) pokeInput(p *Program, name string, v uint64) error {
	ps, ok := p.Input(name)
	if !ok {
		return fmt.Errorf("sim: no input %q", name)
	}
	if ps.Width > 64 {
		return fmt.Errorf("sim: input %q is %d bits wide; use PokeInputVec", name, ps.Width)
	}
	*gs.at(ps.Slot) = v & maskOf(ps.Width)
	return nil
}

// pokeInputVec sets an input port of any width.
func (gs *globalState) pokeInputVec(p *Program, name string, v bitvec.Vec) error {
	ps, ok := p.Input(name)
	if !ok {
		return fmt.Errorf("sim: no input %q", name)
	}
	gs.setVec(ps.Slot, ps.Width, v)
	return nil
}

// peekOutput reads a narrow output port.
func (gs *globalState) peekOutput(p *Program, name string) (uint64, error) {
	ps, ok := p.Output(name)
	if !ok {
		return 0, fmt.Errorf("sim: no output %q", name)
	}
	if ps.Width > 64 {
		return 0, fmt.Errorf("sim: output %q is %d bits wide; use PeekOutputVec", name, ps.Width)
	}
	return *gs.at(ps.Slot), nil
}

// peekOutputVec reads an output port of any width.
func (gs *globalState) peekOutputVec(p *Program, name string) (bitvec.Vec, error) {
	ps, ok := p.Output(name)
	if !ok {
		return bitvec.Vec{}, fmt.Errorf("sim: no output %q", name)
	}
	return gs.vec(ps.Slot, ps.Width), nil
}

// peekRegVec reads a register of any width.
func (gs *globalState) peekRegVec(p *Program, name string) (bitvec.Vec, error) {
	rs, ok := p.Reg(name)
	if !ok {
		return bitvec.Vec{}, fmt.Errorf("sim: no register %q", name)
	}
	return gs.vec(rs.Slot, rs.Width), nil
}

// peekMemVec reads one element of a named memory at any element width,
// assembling a wide element from its word columns: the PeekMemVec of every
// engine tier.
func (gs *globalState) peekMemVec(p *Program, name string, addr int) (bitvec.Vec, error) {
	mi, m, ok := p.Mem(name)
	if !ok {
		return bitvec.Vec{}, fmt.Errorf("sim: no memory %q", name)
	}
	if addr < 0 || addr >= m.Depth {
		return bitvec.Vec{}, fmt.Errorf("sim: mem %q address %d out of range", name, addr)
	}
	v := bitvec.New(m.Width)
	for k := range v.Words {
		v.Words[k] = gs.mems[mi+k][addr]
	}
	return v, nil
}

// newGlobalState builds a global state whose words are word i*stride+lane
// of the given array, one lane of a batch engine's SoA array, with its own
// memories.
func newGlobalState(p *Program, words []uint64, stride, lane int) *globalState {
	gs := &globalState{words: words, stride: stride, lane: lane}
	for _, m := range p.Mems {
		gs.mems = append(gs.mems, make([]uint64, m.Depth))
	}
	return gs
}

// newThreadCtx builds one thread's runtime context. Both parities of the
// memory-write buffer are pre-sized to at least the thread's static write
// count so steady-state cycles never grow them.
func newThreadCtx(code []LInstr) *threadCtx {
	n := 0
	for i := range code {
		if code[i].Op == OpMemWr {
			n++
		}
	}
	n = (n + 7) &^ 7 // 8 writes fill 3 cache lines: other threads read these, so no line is shared
	ctx := &threadCtx{wbuf: [2][]memWrite{make([]memWrite, 0, n), make([]memWrite, 0, n)}}
	ctx.memBuf = ctx.wbuf[0]
	return ctx
}

// signExtend64 sign-extends the low w bits of x to 64 bits.
func signExtend64(x uint64, w uint32) uint64 {
	if w == 0 || w >= 64 {
		return x
	}
	shift := 64 - w
	return uint64(int64(x<<shift) >> shift)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
