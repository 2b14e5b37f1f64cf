package sim

import (
	"fmt"
	"math/bits"
)

// evalLinked executes one linked instruction stream: every operand is a
// single indexed load or store into the engine's unified state slice. It is
// the one scalar definition of opcode semantics — engines, constant folding
// and EvalOp all run it (pure ops touch only st, so a probe may pass nil for
// gs and tc) — and sim.Reference, which never sees an OpCode, is the
// independent oracle it is cross-checked against. gs supplies the memories
// and tc the memory-write buffer.
func evalLinked(code []LInstr, st []uint64, gs *globalState, tc *threadCtx) {
	for i := range code {
		in := &code[i]
		switch in.Op {
		case OpNop:
		case OpCopy:
			st[in.Dst] = st[in.A] & in.Mask
		case OpAdd:
			st[in.Dst] = (st[in.A] + st[in.B]) & in.Mask
		case OpSub:
			st[in.Dst] = (st[in.A] - st[in.B]) & in.Mask
		case OpMul:
			st[in.Dst] = (st[in.A] * st[in.B]) & in.Mask
		case OpMulHi:
			st[in.Dst] = mulHi(st[in.A], st[in.B]) & in.Mask
		case OpDiv:
			b := st[in.B]
			if b == 0 {
				st[in.Dst] = 0
			} else {
				st[in.Dst] = (st[in.A] / b) & in.Mask
			}
		case OpRem:
			b := st[in.B]
			if b == 0 {
				st[in.Dst] = st[in.A] & in.Mask
			} else {
				st[in.Dst] = (st[in.A] % b) & in.Mask
			}
		case OpSDiv:
			a, b := int64(st[in.A]), int64(st[in.B])
			switch {
			case b == 0:
				st[in.Dst] = 0
			case b == -1:
				st[in.Dst] = uint64(-a) & in.Mask // avoids MinInt64 / -1 trap
			default:
				st[in.Dst] = uint64(a/b) & in.Mask
			}
		case OpSRem:
			a, b := int64(st[in.A]), int64(st[in.B])
			switch {
			case b == 0:
				st[in.Dst] = uint64(a) & in.Mask
			case b == -1:
				st[in.Dst] = 0
			default:
				st[in.Dst] = uint64(a%b) & in.Mask
			}
		case OpLt:
			st[in.Dst] = b2u(st[in.A] < st[in.B])
		case OpLeq:
			st[in.Dst] = b2u(st[in.A] <= st[in.B])
		case OpGt:
			st[in.Dst] = b2u(st[in.A] > st[in.B])
		case OpGeq:
			st[in.Dst] = b2u(st[in.A] >= st[in.B])
		case OpSLt:
			st[in.Dst] = b2u(int64(st[in.A]) < int64(st[in.B]))
		case OpSLeq:
			st[in.Dst] = b2u(int64(st[in.A]) <= int64(st[in.B]))
		case OpSGt:
			st[in.Dst] = b2u(int64(st[in.A]) > int64(st[in.B]))
		case OpSGeq:
			st[in.Dst] = b2u(int64(st[in.A]) >= int64(st[in.B]))
		case OpEq:
			st[in.Dst] = b2u(st[in.A] == st[in.B])
		case OpNeq:
			st[in.Dst] = b2u(st[in.A] != st[in.B])
		case OpAnd:
			st[in.Dst] = (st[in.A] & st[in.B]) & in.Mask
		case OpOr:
			st[in.Dst] = (st[in.A] | st[in.B]) & in.Mask
		case OpXor:
			st[in.Dst] = (st[in.A] ^ st[in.B]) & in.Mask
		case OpNot:
			st[in.Dst] = ^st[in.A] & in.Mask
		case OpNeg:
			st[in.Dst] = (-st[in.A]) & in.Mask
		case OpAndr:
			st[in.Dst] = b2u(st[in.A] == in.Mask)
		case OpOrr:
			st[in.Dst] = b2u(st[in.A] != 0)
		case OpXorr:
			st[in.Dst] = uint64(bits.OnesCount64(st[in.A]) & 1)
		case OpCat:
			st[in.Dst] = (st[in.A]<<in.Aux | st[in.B]) & in.Mask
		case OpShl:
			st[in.Dst] = (st[in.A] << in.Aux) & in.Mask
		case OpShr:
			st[in.Dst] = (st[in.A] >> in.Aux) & in.Mask
		case OpSar:
			st[in.Dst] = uint64(int64(st[in.A])>>in.Aux) & in.Mask
		case OpDshl:
			n := st[in.B]
			if n >= 64 {
				st[in.Dst] = 0
			} else {
				st[in.Dst] = (st[in.A] << n) & in.Mask
			}
		case OpDshr:
			n := st[in.B]
			if n >= 64 {
				st[in.Dst] = 0
			} else {
				st[in.Dst] = (st[in.A] >> n) & in.Mask
			}
		case OpDsar:
			n := st[in.B]
			if n > 63 {
				n = 63
			}
			st[in.Dst] = uint64(int64(st[in.A])>>n) & in.Mask
		case OpMux:
			if st[in.A] != 0 {
				st[in.Dst] = st[in.B] & in.Mask
			} else {
				st[in.Dst] = st[in.C] & in.Mask
			}
		case OpSext:
			st[in.Dst] = signExtend64(st[in.A], in.Aux)
		case OpMemRd:
			mem := gs.mems[in.Aux]
			addr := st[in.A]
			if addr < uint64(len(mem)) {
				st[in.Dst] = mem[addr] & in.Mask
			} else {
				st[in.Dst] = 0
			}
		case OpMemWr:
			if st[in.C] != 0 {
				tc.memBuf = append(tc.memBuf, memWrite{
					mem: in.Aux, addr: st[in.A], data: st[in.B] & in.Mask,
				})
			}
		default:
			panic(fmt.Sprintf("sim: bad linked opcode %v", in.Op))
		}
	}
}
