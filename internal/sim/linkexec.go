// Code generated by repro/internal/optable/gen from optable.Table. DO NOT EDIT.

package sim

import (
	"fmt"
	"math/bits"
)

// The opcodes, numbered by their row in optable.Table, which defines each
// one's semantics and traits.
const (
	OpNop OpCode = iota
	OpCopy
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem
	OpSDiv
	OpSRem
	OpLt
	OpLeq
	OpGt
	OpGeq
	OpSLt
	OpSLeq
	OpSGt
	OpSGeq
	OpEq
	OpNeq
	OpAnd
	OpOr
	OpXor
	OpNot
	OpNeg
	OpAndr
	OpOrr
	OpXorr
	OpCat
	OpShl
	OpShr
	OpSar
	OpDshl
	OpDshr
	OpDsar
	OpMux
	OpSext
	OpMemRd
	OpMemWr
	OpMulHi
	numOpCodes
)

// evalLinked executes one linked instruction stream: every operand is a
// single indexed load or store into the engine's unified state slice. It is
// the one scalar executor — engines, constant folding and EvalOp all run it
// (pure ops touch only st, so a probe may pass nil for gs and tc) — and
// sim.Reference, which never sees an OpCode, is the independent oracle it
// is cross-checked against. gs supplies the memories and tc the
// memory-write buffer.
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
		case OpDiv:
			if y := st[in.B]; y == 0 {
				st[in.Dst] = 0
			} else {
				st[in.Dst] = (st[in.A] / y) & in.Mask
			}
		case OpRem:
			if y := st[in.B]; y == 0 {
				st[in.Dst] = st[in.A] & in.Mask
			} else {
				st[in.Dst] = (st[in.A] % y) & in.Mask
			}
		case OpSDiv:
			switch x, y := int64(st[in.A]), int64(st[in.B]); {
			case y == 0:
				st[in.Dst] = 0
			case y == -1:
				st[in.Dst] = uint64(-x) & in.Mask
			default:
				st[in.Dst] = uint64(x/y) & in.Mask
			}
		case OpSRem:
			switch x, y := int64(st[in.A]), int64(st[in.B]); {
			case y == 0:
				st[in.Dst] = uint64(x) & in.Mask
			case y == -1:
				st[in.Dst] = 0
			default:
				st[in.Dst] = uint64(x%y) & in.Mask
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
			if n := st[in.B]; n >= 64 {
				st[in.Dst] = 0
			} else {
				st[in.Dst] = (st[in.A] << n) & in.Mask
			}
		case OpDshr:
			if n := st[in.B]; n >= 64 {
				st[in.Dst] = 0
			} else {
				st[in.Dst] = (st[in.A] >> n) & in.Mask
			}
		case OpDsar:
			{
				n := st[in.B]
				if n > 63 {
					n = 63
				}
				st[in.Dst] = uint64(int64(st[in.A])>>n) & in.Mask
			}
		case OpMux:
			if st[in.A] != 0 {
				st[in.Dst] = st[in.B] & in.Mask
			} else {
				st[in.Dst] = st[in.C] & in.Mask
			}
		case OpSext:
			st[in.Dst] = signExtend64(st[in.A], in.Aux)
		case OpMulHi:
			{
				hi, _ := bits.Mul64(st[in.A], st[in.B])
				st[in.Dst] = hi & in.Mask
			}
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
