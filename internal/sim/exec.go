package sim

import (
	"fmt"
	"math/bits"

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

// globalState is the shared simulator state.
type globalState struct {
	words    []uint64
	wide     []bitvec.Vec
	mems     [][]uint64
	wideMems [][]bitvec.Vec
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

func newGlobalState(p *Program) *globalState {
	return newGlobalStateWords(p, make([]uint64, p.GlobalWords))
}

// newGlobalStateWords builds a global state whose narrow words alias the
// given slice — the linked engines pass a prefix of their unified state
// array so Poke/Peek/reset/update keep working unchanged.
func newGlobalStateWords(p *Program, words []uint64) *globalState {
	gs := &globalState{
		words: words,
		wide:  make([]bitvec.Vec, p.GlobalWide),
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

// newThreadCtx builds one thread's runtime context. When frame is non-nil
// (linked engines) temps and shadow alias the thread's slice of the unified
// state array; otherwise they are allocated privately. The memory-write
// buffers are pre-sized to the thread's static write count so steady-state
// cycles never grow them.
func newThreadCtx(p *Program, tc *ThreadCode, frame []uint64) *threadCtx {
	ctx := &threadCtx{}
	if frame != nil {
		ctx.temps = frame[:tc.NumTemps:tc.NumTemps]
		ctx.shadow = frame[tc.NumTemps : tc.NumTemps+tc.ShadowWords : tc.NumTemps+tc.ShadowWords]
	} else {
		ctx.temps = make([]uint64, tc.NumTemps)
		ctx.shadow = make([]uint64, tc.ShadowWords)
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

// evalBlock interprets one instruction stream against the shared state.
// It is the inner loop of both the serial engine, the RepCut parallel
// engine, and the Verilator-style baseline.
func evalBlock(code []Instr, p *Program, gs *globalState, tc *threadCtx) {
	val := func(ref uint32) uint64 {
		idx := RefIdx(ref)
		switch RefTag(ref) {
		case RefLocal:
			return tc.temps[idx]
		case RefGlobal:
			return gs.words[idx]
		case RefImm:
			return p.Imms[idx]
		default: // RefShadow
			return tc.shadow[idx]
		}
	}
	store := func(ref uint32, v uint64) {
		idx := RefIdx(ref)
		switch RefTag(ref) {
		case RefShadow:
			tc.shadow[idx] = v
		case RefGlobal:
			gs.words[idx] = v
		default:
			tc.temps[idx] = v
		}
	}

	for i := range code {
		in := &code[i]
		switch in.Op {
		case OpNop:
		case OpCopy:
			store(in.Dst, val(in.A)&in.Mask)
		case OpAdd:
			store(in.Dst, (val(in.A)+val(in.B))&in.Mask)
		case OpSub:
			store(in.Dst, (val(in.A)-val(in.B))&in.Mask)
		case OpMul:
			store(in.Dst, (val(in.A)*val(in.B))&in.Mask)
		case OpDiv:
			b := val(in.B)
			if b == 0 {
				store(in.Dst, 0)
			} else {
				store(in.Dst, (val(in.A)/b)&in.Mask)
			}
		case OpRem:
			b := val(in.B)
			if b == 0 {
				store(in.Dst, val(in.A)&in.Mask)
			} else {
				store(in.Dst, (val(in.A)%b)&in.Mask)
			}
		case OpSDiv:
			a, b := int64(val(in.A)), int64(val(in.B))
			switch {
			case b == 0:
				store(in.Dst, 0)
			case b == -1:
				store(in.Dst, uint64(-a)&in.Mask) // avoids MinInt64 / -1 trap
			default:
				store(in.Dst, uint64(a/b)&in.Mask)
			}
		case OpSRem:
			a, b := int64(val(in.A)), int64(val(in.B))
			switch {
			case b == 0:
				store(in.Dst, uint64(a)&in.Mask)
			case b == -1:
				store(in.Dst, 0)
			default:
				store(in.Dst, uint64(a%b)&in.Mask)
			}
		case OpLt:
			store(in.Dst, b2u(val(in.A) < val(in.B)))
		case OpLeq:
			store(in.Dst, b2u(val(in.A) <= val(in.B)))
		case OpGt:
			store(in.Dst, b2u(val(in.A) > val(in.B)))
		case OpGeq:
			store(in.Dst, b2u(val(in.A) >= val(in.B)))
		case OpSLt:
			store(in.Dst, b2u(int64(val(in.A)) < int64(val(in.B))))
		case OpSLeq:
			store(in.Dst, b2u(int64(val(in.A)) <= int64(val(in.B))))
		case OpSGt:
			store(in.Dst, b2u(int64(val(in.A)) > int64(val(in.B))))
		case OpSGeq:
			store(in.Dst, b2u(int64(val(in.A)) >= int64(val(in.B))))
		case OpEq:
			store(in.Dst, b2u(val(in.A) == val(in.B)))
		case OpNeq:
			store(in.Dst, b2u(val(in.A) != val(in.B)))
		case OpAnd:
			store(in.Dst, (val(in.A)&val(in.B))&in.Mask)
		case OpOr:
			store(in.Dst, (val(in.A)|val(in.B))&in.Mask)
		case OpXor:
			store(in.Dst, (val(in.A)^val(in.B))&in.Mask)
		case OpNot:
			store(in.Dst, ^val(in.A)&in.Mask)
		case OpNeg:
			store(in.Dst, (-val(in.A))&in.Mask)
		case OpAndr:
			store(in.Dst, b2u(val(in.A) == in.Mask))
		case OpOrr:
			store(in.Dst, b2u(val(in.A) != 0))
		case OpXorr:
			store(in.Dst, uint64(bits.OnesCount64(val(in.A))&1))
		case OpCat:
			store(in.Dst, (val(in.A)<<in.Aux|val(in.B))&in.Mask)
		case OpShl:
			store(in.Dst, (val(in.A)<<in.Aux)&in.Mask)
		case OpShr:
			store(in.Dst, (val(in.A)>>in.Aux)&in.Mask)
		case OpSar:
			store(in.Dst, uint64(int64(val(in.A))>>in.Aux)&in.Mask)
		case OpDshl:
			n := val(in.B)
			if n >= 64 {
				store(in.Dst, 0)
			} else {
				store(in.Dst, (val(in.A)<<n)&in.Mask)
			}
		case OpDshr:
			n := val(in.B)
			if n >= 64 {
				store(in.Dst, 0)
			} else {
				store(in.Dst, (val(in.A)>>n)&in.Mask)
			}
		case OpDsar:
			n := val(in.B)
			if n > 63 {
				n = 63
			}
			store(in.Dst, uint64(int64(val(in.A))>>n)&in.Mask)
		case OpMux:
			if val(in.A) != 0 {
				store(in.Dst, val(in.B)&in.Mask)
			} else {
				store(in.Dst, val(in.C)&in.Mask)
			}
		case OpSext:
			store(in.Dst, signExtend64(val(in.A), in.Aux))
		case OpMemRd:
			mem := gs.mems[in.Aux]
			addr := val(in.A)
			if addr < uint64(len(mem)) {
				store(in.Dst, mem[addr]&in.Mask)
			} else {
				store(in.Dst, 0)
			}
		case OpMemWr:
			if val(in.C) != 0 {
				tc.memBuf = append(tc.memBuf, memWrite{
					mem: in.Aux, addr: val(in.A), data: val(in.B) & in.Mask,
				})
			}
		case OpWide:
			evalWide(&p.WideNodes[in.Aux], p, gs, tc, val, store)
		default:
			panic(fmt.Sprintf("sim: bad opcode %v", in.Op))
		}
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// evalWide executes one boxed wide node through the bitvec path.
func evalWide(wn *WideNode, p *Program, gs *globalState, tc *threadCtx,
	val func(uint32) uint64, store func(uint32, uint64)) {

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
			return bitvec.FromUint64(a.Type.Width, val(a.Idx))
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
			store(wn.Dst.Idx, v.Uint64())
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
