package sim

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/firrtl"
)

// memWrite is one buffered narrow memory write.
type memWrite struct {
	mem  uint32
	addr uint64
	data uint64
}

// wideMemWrite is one buffered wide memory write.
type wideMemWrite struct {
	mem  uint32
	addr uint64
	data bitvec.Vec
}

// threadCtx is one thread's runtime state.
type threadCtx struct {
	temps      []uint64
	shadow     []uint64
	wideTemps  []bitvec.Vec
	wideShadow []bitvec.Vec
	memBuf     []memWrite
	wideMemBuf []wideMemWrite
	// pad rounds the struct up to a whole number of 64-byte cache lines so
	// contiguously stored threadCtx values never share a line (six slice
	// headers = 144 bytes; +48 = 192 = 3 lines). A test asserts the size
	// stays a multiple of 64 if fields change.
	_ [6]uint64
}

// globalState is one simulation's view of the state: the narrow words of
// the unified linked layout (link.go) plus the boxed wide values and
// memories. Narrow word i lives at words[i*stride+lane] — stride 1, lane 0
// over an engine view's own state array; stride BatchWidth and the lane
// index over a batch engine's SoA array, where the lanes' words interleave.
type globalState struct {
	words        []uint64
	stride, lane int
	wide         []bitvec.Vec
	mems         [][]uint64
	wideMems     [][]bitvec.Vec
}

// at addresses narrow state word i.
func (gs *globalState) at(i uint32) *uint64 { return &gs.words[int(i)*gs.stride+gs.lane] }

// pokeInput sets a narrow input port, masked to its width: the PokeInput of
// every engine tier (Engine calls it once per view).
func (gs *globalState) pokeInput(p *Program, name string, v uint64) error {
	ps, ok := p.Input(name)
	if !ok {
		return fmt.Errorf("sim: no input %q", name)
	}
	if ps.Wide {
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
	if ps.Wide {
		gs.wide[ps.Slot] = bitvec.ZeroExtend(ps.Width, v)
	} else {
		*gs.at(ps.Slot) = v.Uint64() & maskOf(ps.Width)
	}
	return nil
}

// peekOutput reads a narrow output port.
func (gs *globalState) peekOutput(p *Program, name string) (uint64, error) {
	ps, ok := p.Output(name)
	if !ok {
		return 0, fmt.Errorf("sim: no output %q", name)
	}
	if ps.Wide {
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
	if ps.Wide {
		return gs.wide[ps.Slot].Clone(), nil
	}
	return bitvec.FromUint64(ps.Width, *gs.at(ps.Slot)), nil
}

// peekRegVec reads a register of any width.
func (gs *globalState) peekRegVec(p *Program, name string) (bitvec.Vec, error) {
	rs, ok := p.Reg(name)
	if !ok {
		return bitvec.Vec{}, fmt.Errorf("sim: no register %q", name)
	}
	if rs.Wide {
		return gs.wide[rs.Slot].Clone(), nil
	}
	return bitvec.FromUint64(rs.Width, *gs.at(rs.Slot)), nil
}

// peekMemVec reads one word of a named memory at any element width: the
// PeekMemVec of every engine tier.
func (gs *globalState) peekMemVec(p *Program, name string, addr int) (bitvec.Vec, error) {
	mi, m, ok := p.Mem(name)
	if !ok {
		return bitvec.Vec{}, fmt.Errorf("sim: no memory %q", name)
	}
	if addr < 0 || addr >= m.Depth {
		return bitvec.Vec{}, fmt.Errorf("sim: mem %q address %d out of range", name, addr)
	}
	if m.Wide {
		return gs.wideMems[mi][addr].Clone(), nil
	}
	return bitvec.FromUint64(m.Width, gs.mems[mi][addr]), nil
}

// newGlobalState builds a global state whose narrow words are word
// i*stride+lane of the given array: an engine view's unified state array
// (stride 1, lane 0) or one lane of a batch engine's SoA array.
func newGlobalState(p *Program, words []uint64, stride, lane int) *globalState {
	gs := &globalState{
		words:  words,
		stride: stride,
		lane:   lane,
		wide:   make([]bitvec.Vec, p.GlobalWide),
	}
	for i := range gs.wide {
		gs.wide[i] = bitvec.New(64) // placeholder; sized properly on reset
	}
	for _, m := range p.Mems {
		if m.Wide {
			wm := make([]bitvec.Vec, m.Depth)
			for i := range wm {
				wm[i] = bitvec.New(m.Width)
			}
			gs.wideMems = append(gs.wideMems, wm)
			gs.mems = append(gs.mems, nil)
		} else {
			gs.mems = append(gs.mems, make([]uint64, m.Depth))
			gs.wideMems = append(gs.wideMems, nil)
		}
	}
	return gs
}

// newThreadCtx builds one thread's runtime context: temps and shadow alias
// the thread's frame in the unified state array. The memory-write buffers
// are pre-sized to the thread's static write count so steady-state cycles
// never grow them.
func newThreadCtx(p *Program, tc *ThreadCode, frame []uint64) *threadCtx {
	ctx := &threadCtx{
		temps:  frame[:tc.NumTemps:tc.NumTemps],
		shadow: frame[tc.NumTemps : tc.NumTemps+tc.ShadowWords : tc.NumTemps+tc.ShadowWords],
	}
	ctx.wideTemps = make([]bitvec.Vec, tc.NumWideTemps)
	ctx.wideShadow = make([]bitvec.Vec, len(tc.WideShadowSlots))
	for i, t := range tc.WideShadowTypes {
		ctx.wideShadow[i] = bitvec.New(t.Width)
	}
	narrow, wide := memWriteCounts(p, tc)
	if narrow > 0 {
		ctx.memBuf = make([]memWrite, 0, narrow)
	}
	if wide > 0 {
		ctx.wideMemBuf = make([]wideMemWrite, 0, wide)
	}
	return ctx
}

// memWritten returns the memory an instruction writes; ok is false for
// every instruction that is not a memory write.
func memWritten(p *Program, in *Instr) (mem int, ok bool) {
	switch in.Op {
	case OpMemWr:
		return int(in.Aux), true
	case OpWide:
		if wn := &p.WideNodes[in.Aux]; wn.Kind == wkMemWr {
			return wn.Mem, true
		}
	}
	return 0, false
}

// memWriteCounts returns the number of narrow and wide memory-write
// instructions in a thread's code — an upper bound on writes buffered in
// one cycle, used to pre-size the write buffers.
func memWriteCounts(p *Program, tc *ThreadCode) (narrow, wide int) {
	for i := range tc.Code {
		if m, ok := memWritten(p, &tc.Code[i]); !ok {
			continue
		} else if p.Mems[m].Wide {
			wide++
		} else {
			narrow++
		}
	}
	return narrow, wide
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

// evalWide executes one boxed wide node through the bitvec path; its narrow
// operands are gs's state words.
func evalWide(wn *WideNode, p *Program, gs *globalState, tc *threadCtx) {
	fetch := func(a WideOperand) bitvec.Vec {
		switch a.Space {
		case wsWideLocal:
			return tc.wideTemps[a.Idx]
		case wsWideGlobal:
			return gs.wide[a.Idx]
		case wsWideImm:
			return p.WideImms[a.Idx]
		case wsWideShadow:
			return tc.wideShadow[a.Idx]
		default: // narrow
			return bitvec.FromUint64(a.Type.Width, *gs.at(a.Idx))
		}
	}
	put := func(v bitvec.Vec) {
		switch wn.Dst.Space {
		case wsWideLocal:
			tc.wideTemps[wn.Dst.Idx] = v
		case wsWideGlobal:
			gs.wide[wn.Dst.Idx] = v
		case wsWideShadow:
			tc.wideShadow[wn.Dst.Idx] = v
		case wsNarrow:
			*gs.at(wn.Dst.Idx) = v.Uint64()
		default:
			panic("sim: bad wide destination")
		}
	}

	switch wn.Kind {
	case wkConst:
		put(fetch(wn.Args[0]).Clone())
	case wkCopy:
		src := fetch(wn.Args[0])
		if wn.Args[0].Type.Kind == firrtl.KSInt {
			put(bitvec.SignExtend(wn.RType.Width, src))
		} else {
			put(bitvec.ZeroExtend(wn.RType.Width, src))
		}
	case wkPrim:
		args := make([]bitvec.Vec, len(wn.Args))
		ats := make([]firrtl.Type, len(wn.Args))
		for i, a := range wn.Args {
			args[i] = fetch(a)
			ats[i] = a.Type
		}
		put(firrtl.EvalPrim(wn.Op, wn.RType, ats, args, wn.Consts))
	case wkMemRd:
		addr := fetch(wn.Args[0]).Uint64()
		if wm := gs.wideMems[wn.Mem]; wm != nil {
			if addr < uint64(len(wm)) {
				put(wm[addr].Clone())
			} else {
				put(bitvec.New(wn.RType.Width))
			}
			return
		}
		// Narrow memory reached via the wide path (e.g. a wide address).
		m := gs.mems[wn.Mem]
		if addr < uint64(len(m)) {
			put(bitvec.FromUint64(wn.RType.Width, m[addr]))
		} else {
			put(bitvec.New(wn.RType.Width))
		}
	case wkMemWr:
		en := fetch(wn.Args[2])
		if en.IsZero() {
			return
		}
		addr := fetch(wn.Args[0]).Uint64()
		data := fetch(wn.Args[1])
		var masked bitvec.Vec
		if wn.Args[1].Type.Kind == firrtl.KSInt {
			masked = bitvec.SignExtend(wn.RType.Width, data)
		} else {
			masked = bitvec.ZeroExtend(wn.RType.Width, data)
		}
		if gs.wideMems[wn.Mem] != nil {
			tc.wideMemBuf = append(tc.wideMemBuf, wideMemWrite{
				mem: uint32(wn.Mem), addr: addr, data: masked,
			})
		} else {
			tc.memBuf = append(tc.memBuf, memWrite{
				mem: uint32(wn.Mem), addr: addr, data: masked.Uint64(),
			})
		}
	}
}
