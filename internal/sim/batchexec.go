package sim

import "fmt"

// evalThreadBatch executes thread t's linked instruction stream once,
// applying each instruction to every lane before moving to the next
// instruction: instruction fetch, opcode dispatch, and operand decode are
// paid once per instruction instead of once per lane per instruction.
//
// Narrow operations run over e.blk, the state reinterpreted as cache-line
// blocks (blk8 = one state word's column of eight lanes): per instruction
// the executor resolves each operand to a block index once, then calls an
// unrolled 8-lane kernel (batchkern.go) per block. Fixed-size array
// pointers mean no bounds checks and no loop bookkeeping in the innermost
// code, and the eight independent statements give the out-of-order core
// ILP that a scalar engine's serial dependence chain can't.
//
// Kernels run over every lane including masked-out and padding lanes —
// they are total over garbage, and under the private-temp model the eval
// phase writes only temps/shadow, so computing a masked-out lane is
// unobservable (the commit in updateBatch is what the step mask gates).
// Memory operations and the boxed wide path keep per-lane semantics and
// honor the mask directly.
func (e *BatchEngine) evalThreadBatch(t int, mask []bool) {
	code := e.lp.Threads[t].Code
	st := e.st
	blk := e.blk
	nb := e.nb
	stride := e.stride
	n := e.lanes

	// col returns the lane column of state word w (per-lane fallbacks).
	col := func(w uint32) []uint64 { return st[int(w)*stride:][:n] }
	// bcol returns the block column of state word w (kernel path).
	bcol := func(w uint32) []blk8 { return blk[int(w)*nb:][:nb] }

	for i := range code {
		in := &code[i]
		switch in.Op {
		case OpNop:
		case OpCopy:
			copy8(bcol(in.Dst), bcol(in.A), in.Mask)
		case OpAdd:
			add8(bcol(in.Dst), bcol(in.A), bcol(in.B), in.Mask)
		case OpSub:
			sub8(bcol(in.Dst), bcol(in.A), bcol(in.B), in.Mask)
		case OpMul:
			mul8(bcol(in.Dst), bcol(in.A), bcol(in.B), in.Mask)
		case OpDiv:
			div8(bcol(in.Dst), bcol(in.A), bcol(in.B), in.Mask)
		case OpRem:
			rem8(bcol(in.Dst), bcol(in.A), bcol(in.B), in.Mask)
		case OpSDiv:
			d, av, bv, m := col(in.Dst), col(in.A), col(in.B), in.Mask
			for l := range d {
				a, b := int64(av[l]), int64(bv[l])
				switch {
				case b == 0:
					d[l] = 0
				case b == -1:
					d[l] = uint64(-a) & m // avoids MinInt64 / -1 trap
				default:
					d[l] = uint64(a/b) & m
				}
			}
		case OpSRem:
			d, av, bv, m := col(in.Dst), col(in.A), col(in.B), in.Mask
			for l := range d {
				a, b := int64(av[l]), int64(bv[l])
				switch {
				case b == 0:
					d[l] = uint64(a) & m
				case b == -1:
					d[l] = 0
				default:
					d[l] = uint64(a%b) & m
				}
			}
		case OpLt:
			lt8(bcol(in.Dst), bcol(in.A), bcol(in.B))
		case OpLeq:
			leq8(bcol(in.Dst), bcol(in.A), bcol(in.B))
		case OpGt:
			gt8(bcol(in.Dst), bcol(in.A), bcol(in.B))
		case OpGeq:
			geq8(bcol(in.Dst), bcol(in.A), bcol(in.B))
		case OpSLt:
			slt8(bcol(in.Dst), bcol(in.A), bcol(in.B))
		case OpSLeq:
			sleq8(bcol(in.Dst), bcol(in.A), bcol(in.B))
		case OpSGt:
			sgt8(bcol(in.Dst), bcol(in.A), bcol(in.B))
		case OpSGeq:
			sgeq8(bcol(in.Dst), bcol(in.A), bcol(in.B))
		case OpEq:
			eq8(bcol(in.Dst), bcol(in.A), bcol(in.B))
		case OpNeq:
			neq8(bcol(in.Dst), bcol(in.A), bcol(in.B))
		case OpAnd:
			and8(bcol(in.Dst), bcol(in.A), bcol(in.B), in.Mask)
		case OpOr:
			or8(bcol(in.Dst), bcol(in.A), bcol(in.B), in.Mask)
		case OpXor:
			xor8(bcol(in.Dst), bcol(in.A), bcol(in.B), in.Mask)
		case OpNot:
			not8(bcol(in.Dst), bcol(in.A), in.Mask)
		case OpNeg:
			neg8(bcol(in.Dst), bcol(in.A), in.Mask)
		case OpAndr:
			andr8(bcol(in.Dst), bcol(in.A), in.Mask)
		case OpOrr:
			orr8(bcol(in.Dst), bcol(in.A))
		case OpXorr:
			xorr8(bcol(in.Dst), bcol(in.A))
		case OpCat:
			cat8(bcol(in.Dst), bcol(in.A), bcol(in.B), in.Aux, in.Mask)
		case OpShl:
			shl8(bcol(in.Dst), bcol(in.A), in.Aux, in.Mask)
		case OpShr:
			shr8(bcol(in.Dst), bcol(in.A), in.Aux, in.Mask)
		case OpSar:
			sar8(bcol(in.Dst), bcol(in.A), in.Aux, in.Mask)
		case OpDshl:
			dshl8(bcol(in.Dst), bcol(in.A), bcol(in.B), in.Mask)
		case OpDshr:
			dshr8(bcol(in.Dst), bcol(in.A), bcol(in.B), in.Mask)
		case OpDsar:
			dsar8(bcol(in.Dst), bcol(in.A), bcol(in.B), in.Mask)
		case OpMux:
			mux8(bcol(in.Dst), bcol(in.A), bcol(in.B), bcol(in.C), in.Mask)
		case OpSext:
			sext8(bcol(in.Dst), bcol(in.A), in.Aux)
		case OpMemRd:
			d, a, m := col(in.Dst), col(in.A), in.Mask
			for l := 0; l < n; l++ {
				if !mask[l] {
					continue
				}
				mem := e.laneGS[l].mems[in.Aux]
				if addr := a[l]; addr < uint64(len(mem)) {
					d[l] = mem[addr] & m
				} else {
					d[l] = 0
				}
			}
		case OpMemWr:
			a, b, c, m := col(in.A), col(in.B), col(in.C), in.Mask
			for l := 0; l < n; l++ {
				if !mask[l] || c[l] == 0 {
					continue
				}
				tc := e.laneTC[l][t]
				tc.memBuf = append(tc.memBuf, memWrite{
					mem: in.Aux, addr: a[l], data: b[l] & m,
				})
			}
		case OpWide:
			wn := &e.lp.WideNodes[in.Aux]
			for l := 0; l < n; l++ {
				if !mask[l] {
					continue
				}
				evalWide(wn, e.prog, e.laneGS[l], e.laneTC[l][t], e.wval[l], e.wstore[l])
			}
		default:
			panic(fmt.Sprintf("sim: bad linked opcode %v", in.Op))
		}
	}
}
