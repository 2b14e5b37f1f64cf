// Code generated by repro/internal/optable/gen from optable.Table. DO NOT EDIT.

package sim

import (
	"fmt"
	"math/bits"
	"unsafe"
)

// evalThreadBatch executes thread t's linked instruction stream once,
// applying each instruction to every lane of the column before moving to
// the next instruction: instruction fetch, opcode dispatch and operand
// decode are paid once per instruction instead of once per lane per
// instruction. It is the only batch executor; every BatchEngine, whatever
// its lane count, runs it over full BatchWidth-lane columns.
//
// Each arm is its op's template written out for all sixteen lanes over
// *col16 operands resolved with raw pointer arithmetic (one state word =
// BatchWidth*8 bytes). The pointer arithmetic is sound because linked slot
// indices are bounded by the program's state-word count (internal/verify
// proves it) and e.st spans StateWords*BatchWidth words.
//
// The arms run over every lane including masked-out and padding lanes:
// they are total over arbitrary bit patterns (branchless division guards,
// guarded shifts), and under the private-temp model the eval phase writes
// only temps and shadow, so computing a lane that must not advance is
// unobservable (the commit in updateBatch is what the step mask gates).
// Signed division and the memory operations run per lane over the live
// lanes, and the memory operations honor the mask.
func (e *BatchEngine) evalThreadBatch(t int, mask []bool) {
	code := e.prog.Threads[t].Code
	if len(code) == 0 {
		return // includes the program without state, which has no &st[0]
	}
	st := e.st
	n := e.lanes
	base := unsafe.Pointer(&st[0])

	// p returns the column of state word w.
	p := func(w uint32) *col16 {
		return (*col16)(unsafe.Add(base, uintptr(w)*BatchWidth*8))
	}
	// col is the live-lane prefix of a column (per-lane arms).
	col := func(w uint32) []uint64 { return st[int(w)*BatchWidth:][:n] }

	for i := range code {
		in := &code[i]
		switch in.Op {
		case OpNop:
		case OpCopy:
			d, a := p(in.Dst), p(in.A)
			m := in.Mask
			d[0] = a[0] & m
			d[1] = a[1] & m
			d[2] = a[2] & m
			d[3] = a[3] & m
			d[4] = a[4] & m
			d[5] = a[5] & m
			d[6] = a[6] & m
			d[7] = a[7] & m
			d[8] = a[8] & m
			d[9] = a[9] & m
			d[10] = a[10] & m
			d[11] = a[11] & m
			d[12] = a[12] & m
			d[13] = a[13] & m
			d[14] = a[14] & m
			d[15] = a[15] & m

		case OpAdd:
			d, a, b := p(in.Dst), p(in.A), p(in.B)
			m := in.Mask
			d[0] = (a[0] + b[0]) & m
			d[1] = (a[1] + b[1]) & m
			d[2] = (a[2] + b[2]) & m
			d[3] = (a[3] + b[3]) & m
			d[4] = (a[4] + b[4]) & m
			d[5] = (a[5] + b[5]) & m
			d[6] = (a[6] + b[6]) & m
			d[7] = (a[7] + b[7]) & m
			d[8] = (a[8] + b[8]) & m
			d[9] = (a[9] + b[9]) & m
			d[10] = (a[10] + b[10]) & m
			d[11] = (a[11] + b[11]) & m
			d[12] = (a[12] + b[12]) & m
			d[13] = (a[13] + b[13]) & m
			d[14] = (a[14] + b[14]) & m
			d[15] = (a[15] + b[15]) & m

		case OpSub:
			d, a, b := p(in.Dst), p(in.A), p(in.B)
			m := in.Mask
			d[0] = (a[0] - b[0]) & m
			d[1] = (a[1] - b[1]) & m
			d[2] = (a[2] - b[2]) & m
			d[3] = (a[3] - b[3]) & m
			d[4] = (a[4] - b[4]) & m
			d[5] = (a[5] - b[5]) & m
			d[6] = (a[6] - b[6]) & m
			d[7] = (a[7] - b[7]) & m
			d[8] = (a[8] - b[8]) & m
			d[9] = (a[9] - b[9]) & m
			d[10] = (a[10] - b[10]) & m
			d[11] = (a[11] - b[11]) & m
			d[12] = (a[12] - b[12]) & m
			d[13] = (a[13] - b[13]) & m
			d[14] = (a[14] - b[14]) & m
			d[15] = (a[15] - b[15]) & m

		case OpMul:
			d, a, b := p(in.Dst), p(in.A), p(in.B)
			m := in.Mask
			d[0] = (a[0] * b[0]) & m
			d[1] = (a[1] * b[1]) & m
			d[2] = (a[2] * b[2]) & m
			d[3] = (a[3] * b[3]) & m
			d[4] = (a[4] * b[4]) & m
			d[5] = (a[5] * b[5]) & m
			d[6] = (a[6] * b[6]) & m
			d[7] = (a[7] * b[7]) & m
			d[8] = (a[8] * b[8]) & m
			d[9] = (a[9] * b[9]) & m
			d[10] = (a[10] * b[10]) & m
			d[11] = (a[11] * b[11]) & m
			d[12] = (a[12] * b[12]) & m
			d[13] = (a[13] * b[13]) & m
			d[14] = (a[14] * b[14]) & m
			d[15] = (a[15] * b[15]) & m

		case OpDiv:
			d, a, b := p(in.Dst), p(in.A), p(in.B)
			m := in.Mask
			d[0] = divLane(a[0], b[0], m)
			d[1] = divLane(a[1], b[1], m)
			d[2] = divLane(a[2], b[2], m)
			d[3] = divLane(a[3], b[3], m)
			d[4] = divLane(a[4], b[4], m)
			d[5] = divLane(a[5], b[5], m)
			d[6] = divLane(a[6], b[6], m)
			d[7] = divLane(a[7], b[7], m)
			d[8] = divLane(a[8], b[8], m)
			d[9] = divLane(a[9], b[9], m)
			d[10] = divLane(a[10], b[10], m)
			d[11] = divLane(a[11], b[11], m)
			d[12] = divLane(a[12], b[12], m)
			d[13] = divLane(a[13], b[13], m)
			d[14] = divLane(a[14], b[14], m)
			d[15] = divLane(a[15], b[15], m)

		case OpRem:
			d, a, b := p(in.Dst), p(in.A), p(in.B)
			m := in.Mask
			d[0] = remLane(a[0], b[0], m)
			d[1] = remLane(a[1], b[1], m)
			d[2] = remLane(a[2], b[2], m)
			d[3] = remLane(a[3], b[3], m)
			d[4] = remLane(a[4], b[4], m)
			d[5] = remLane(a[5], b[5], m)
			d[6] = remLane(a[6], b[6], m)
			d[7] = remLane(a[7], b[7], m)
			d[8] = remLane(a[8], b[8], m)
			d[9] = remLane(a[9], b[9], m)
			d[10] = remLane(a[10], b[10], m)
			d[11] = remLane(a[11], b[11], m)
			d[12] = remLane(a[12], b[12], m)
			d[13] = remLane(a[13], b[13], m)
			d[14] = remLane(a[14], b[14], m)
			d[15] = remLane(a[15], b[15], m)

		case OpSDiv:
			d, a, b := col(in.Dst), col(in.A), col(in.B)
			m := in.Mask
			for l := range d {
				switch x, y := int64(a[l]), int64(b[l]); {
				case y == 0:
					d[l] = 0
				case y == -1:
					d[l] = uint64(-x) & m
				default:
					d[l] = uint64(x/y) & m
				}
			}
		case OpSRem:
			d, a, b := col(in.Dst), col(in.A), col(in.B)
			m := in.Mask
			for l := range d {
				switch x, y := int64(a[l]), int64(b[l]); {
				case y == 0:
					d[l] = uint64(x) & m
				case y == -1:
					d[l] = 0
				default:
					d[l] = uint64(x%y) & m
				}
			}
		case OpLt:
			d, a, b := p(in.Dst), p(in.A), p(in.B)
			d[0] = b2u(a[0] < b[0])
			d[1] = b2u(a[1] < b[1])
			d[2] = b2u(a[2] < b[2])
			d[3] = b2u(a[3] < b[3])
			d[4] = b2u(a[4] < b[4])
			d[5] = b2u(a[5] < b[5])
			d[6] = b2u(a[6] < b[6])
			d[7] = b2u(a[7] < b[7])
			d[8] = b2u(a[8] < b[8])
			d[9] = b2u(a[9] < b[9])
			d[10] = b2u(a[10] < b[10])
			d[11] = b2u(a[11] < b[11])
			d[12] = b2u(a[12] < b[12])
			d[13] = b2u(a[13] < b[13])
			d[14] = b2u(a[14] < b[14])
			d[15] = b2u(a[15] < b[15])

		case OpLeq:
			d, a, b := p(in.Dst), p(in.A), p(in.B)
			d[0] = b2u(a[0] <= b[0])
			d[1] = b2u(a[1] <= b[1])
			d[2] = b2u(a[2] <= b[2])
			d[3] = b2u(a[3] <= b[3])
			d[4] = b2u(a[4] <= b[4])
			d[5] = b2u(a[5] <= b[5])
			d[6] = b2u(a[6] <= b[6])
			d[7] = b2u(a[7] <= b[7])
			d[8] = b2u(a[8] <= b[8])
			d[9] = b2u(a[9] <= b[9])
			d[10] = b2u(a[10] <= b[10])
			d[11] = b2u(a[11] <= b[11])
			d[12] = b2u(a[12] <= b[12])
			d[13] = b2u(a[13] <= b[13])
			d[14] = b2u(a[14] <= b[14])
			d[15] = b2u(a[15] <= b[15])

		case OpGt:
			d, a, b := p(in.Dst), p(in.A), p(in.B)
			d[0] = b2u(a[0] > b[0])
			d[1] = b2u(a[1] > b[1])
			d[2] = b2u(a[2] > b[2])
			d[3] = b2u(a[3] > b[3])
			d[4] = b2u(a[4] > b[4])
			d[5] = b2u(a[5] > b[5])
			d[6] = b2u(a[6] > b[6])
			d[7] = b2u(a[7] > b[7])
			d[8] = b2u(a[8] > b[8])
			d[9] = b2u(a[9] > b[9])
			d[10] = b2u(a[10] > b[10])
			d[11] = b2u(a[11] > b[11])
			d[12] = b2u(a[12] > b[12])
			d[13] = b2u(a[13] > b[13])
			d[14] = b2u(a[14] > b[14])
			d[15] = b2u(a[15] > b[15])

		case OpGeq:
			d, a, b := p(in.Dst), p(in.A), p(in.B)
			d[0] = b2u(a[0] >= b[0])
			d[1] = b2u(a[1] >= b[1])
			d[2] = b2u(a[2] >= b[2])
			d[3] = b2u(a[3] >= b[3])
			d[4] = b2u(a[4] >= b[4])
			d[5] = b2u(a[5] >= b[5])
			d[6] = b2u(a[6] >= b[6])
			d[7] = b2u(a[7] >= b[7])
			d[8] = b2u(a[8] >= b[8])
			d[9] = b2u(a[9] >= b[9])
			d[10] = b2u(a[10] >= b[10])
			d[11] = b2u(a[11] >= b[11])
			d[12] = b2u(a[12] >= b[12])
			d[13] = b2u(a[13] >= b[13])
			d[14] = b2u(a[14] >= b[14])
			d[15] = b2u(a[15] >= b[15])

		case OpSLt:
			d, a, b := p(in.Dst), p(in.A), p(in.B)
			d[0] = b2u(int64(a[0]) < int64(b[0]))
			d[1] = b2u(int64(a[1]) < int64(b[1]))
			d[2] = b2u(int64(a[2]) < int64(b[2]))
			d[3] = b2u(int64(a[3]) < int64(b[3]))
			d[4] = b2u(int64(a[4]) < int64(b[4]))
			d[5] = b2u(int64(a[5]) < int64(b[5]))
			d[6] = b2u(int64(a[6]) < int64(b[6]))
			d[7] = b2u(int64(a[7]) < int64(b[7]))
			d[8] = b2u(int64(a[8]) < int64(b[8]))
			d[9] = b2u(int64(a[9]) < int64(b[9]))
			d[10] = b2u(int64(a[10]) < int64(b[10]))
			d[11] = b2u(int64(a[11]) < int64(b[11]))
			d[12] = b2u(int64(a[12]) < int64(b[12]))
			d[13] = b2u(int64(a[13]) < int64(b[13]))
			d[14] = b2u(int64(a[14]) < int64(b[14]))
			d[15] = b2u(int64(a[15]) < int64(b[15]))

		case OpSLeq:
			d, a, b := p(in.Dst), p(in.A), p(in.B)
			d[0] = b2u(int64(a[0]) <= int64(b[0]))
			d[1] = b2u(int64(a[1]) <= int64(b[1]))
			d[2] = b2u(int64(a[2]) <= int64(b[2]))
			d[3] = b2u(int64(a[3]) <= int64(b[3]))
			d[4] = b2u(int64(a[4]) <= int64(b[4]))
			d[5] = b2u(int64(a[5]) <= int64(b[5]))
			d[6] = b2u(int64(a[6]) <= int64(b[6]))
			d[7] = b2u(int64(a[7]) <= int64(b[7]))
			d[8] = b2u(int64(a[8]) <= int64(b[8]))
			d[9] = b2u(int64(a[9]) <= int64(b[9]))
			d[10] = b2u(int64(a[10]) <= int64(b[10]))
			d[11] = b2u(int64(a[11]) <= int64(b[11]))
			d[12] = b2u(int64(a[12]) <= int64(b[12]))
			d[13] = b2u(int64(a[13]) <= int64(b[13]))
			d[14] = b2u(int64(a[14]) <= int64(b[14]))
			d[15] = b2u(int64(a[15]) <= int64(b[15]))

		case OpSGt:
			d, a, b := p(in.Dst), p(in.A), p(in.B)
			d[0] = b2u(int64(a[0]) > int64(b[0]))
			d[1] = b2u(int64(a[1]) > int64(b[1]))
			d[2] = b2u(int64(a[2]) > int64(b[2]))
			d[3] = b2u(int64(a[3]) > int64(b[3]))
			d[4] = b2u(int64(a[4]) > int64(b[4]))
			d[5] = b2u(int64(a[5]) > int64(b[5]))
			d[6] = b2u(int64(a[6]) > int64(b[6]))
			d[7] = b2u(int64(a[7]) > int64(b[7]))
			d[8] = b2u(int64(a[8]) > int64(b[8]))
			d[9] = b2u(int64(a[9]) > int64(b[9]))
			d[10] = b2u(int64(a[10]) > int64(b[10]))
			d[11] = b2u(int64(a[11]) > int64(b[11]))
			d[12] = b2u(int64(a[12]) > int64(b[12]))
			d[13] = b2u(int64(a[13]) > int64(b[13]))
			d[14] = b2u(int64(a[14]) > int64(b[14]))
			d[15] = b2u(int64(a[15]) > int64(b[15]))

		case OpSGeq:
			d, a, b := p(in.Dst), p(in.A), p(in.B)
			d[0] = b2u(int64(a[0]) >= int64(b[0]))
			d[1] = b2u(int64(a[1]) >= int64(b[1]))
			d[2] = b2u(int64(a[2]) >= int64(b[2]))
			d[3] = b2u(int64(a[3]) >= int64(b[3]))
			d[4] = b2u(int64(a[4]) >= int64(b[4]))
			d[5] = b2u(int64(a[5]) >= int64(b[5]))
			d[6] = b2u(int64(a[6]) >= int64(b[6]))
			d[7] = b2u(int64(a[7]) >= int64(b[7]))
			d[8] = b2u(int64(a[8]) >= int64(b[8]))
			d[9] = b2u(int64(a[9]) >= int64(b[9]))
			d[10] = b2u(int64(a[10]) >= int64(b[10]))
			d[11] = b2u(int64(a[11]) >= int64(b[11]))
			d[12] = b2u(int64(a[12]) >= int64(b[12]))
			d[13] = b2u(int64(a[13]) >= int64(b[13]))
			d[14] = b2u(int64(a[14]) >= int64(b[14]))
			d[15] = b2u(int64(a[15]) >= int64(b[15]))

		case OpEq:
			d, a, b := p(in.Dst), p(in.A), p(in.B)
			d[0] = b2u(a[0] == b[0])
			d[1] = b2u(a[1] == b[1])
			d[2] = b2u(a[2] == b[2])
			d[3] = b2u(a[3] == b[3])
			d[4] = b2u(a[4] == b[4])
			d[5] = b2u(a[5] == b[5])
			d[6] = b2u(a[6] == b[6])
			d[7] = b2u(a[7] == b[7])
			d[8] = b2u(a[8] == b[8])
			d[9] = b2u(a[9] == b[9])
			d[10] = b2u(a[10] == b[10])
			d[11] = b2u(a[11] == b[11])
			d[12] = b2u(a[12] == b[12])
			d[13] = b2u(a[13] == b[13])
			d[14] = b2u(a[14] == b[14])
			d[15] = b2u(a[15] == b[15])

		case OpNeq:
			d, a, b := p(in.Dst), p(in.A), p(in.B)
			d[0] = b2u(a[0] != b[0])
			d[1] = b2u(a[1] != b[1])
			d[2] = b2u(a[2] != b[2])
			d[3] = b2u(a[3] != b[3])
			d[4] = b2u(a[4] != b[4])
			d[5] = b2u(a[5] != b[5])
			d[6] = b2u(a[6] != b[6])
			d[7] = b2u(a[7] != b[7])
			d[8] = b2u(a[8] != b[8])
			d[9] = b2u(a[9] != b[9])
			d[10] = b2u(a[10] != b[10])
			d[11] = b2u(a[11] != b[11])
			d[12] = b2u(a[12] != b[12])
			d[13] = b2u(a[13] != b[13])
			d[14] = b2u(a[14] != b[14])
			d[15] = b2u(a[15] != b[15])

		case OpAnd:
			d, a, b := p(in.Dst), p(in.A), p(in.B)
			m := in.Mask
			d[0] = (a[0] & b[0]) & m
			d[1] = (a[1] & b[1]) & m
			d[2] = (a[2] & b[2]) & m
			d[3] = (a[3] & b[3]) & m
			d[4] = (a[4] & b[4]) & m
			d[5] = (a[5] & b[5]) & m
			d[6] = (a[6] & b[6]) & m
			d[7] = (a[7] & b[7]) & m
			d[8] = (a[8] & b[8]) & m
			d[9] = (a[9] & b[9]) & m
			d[10] = (a[10] & b[10]) & m
			d[11] = (a[11] & b[11]) & m
			d[12] = (a[12] & b[12]) & m
			d[13] = (a[13] & b[13]) & m
			d[14] = (a[14] & b[14]) & m
			d[15] = (a[15] & b[15]) & m

		case OpOr:
			d, a, b := p(in.Dst), p(in.A), p(in.B)
			m := in.Mask
			d[0] = (a[0] | b[0]) & m
			d[1] = (a[1] | b[1]) & m
			d[2] = (a[2] | b[2]) & m
			d[3] = (a[3] | b[3]) & m
			d[4] = (a[4] | b[4]) & m
			d[5] = (a[5] | b[5]) & m
			d[6] = (a[6] | b[6]) & m
			d[7] = (a[7] | b[7]) & m
			d[8] = (a[8] | b[8]) & m
			d[9] = (a[9] | b[9]) & m
			d[10] = (a[10] | b[10]) & m
			d[11] = (a[11] | b[11]) & m
			d[12] = (a[12] | b[12]) & m
			d[13] = (a[13] | b[13]) & m
			d[14] = (a[14] | b[14]) & m
			d[15] = (a[15] | b[15]) & m

		case OpXor:
			d, a, b := p(in.Dst), p(in.A), p(in.B)
			m := in.Mask
			d[0] = (a[0] ^ b[0]) & m
			d[1] = (a[1] ^ b[1]) & m
			d[2] = (a[2] ^ b[2]) & m
			d[3] = (a[3] ^ b[3]) & m
			d[4] = (a[4] ^ b[4]) & m
			d[5] = (a[5] ^ b[5]) & m
			d[6] = (a[6] ^ b[6]) & m
			d[7] = (a[7] ^ b[7]) & m
			d[8] = (a[8] ^ b[8]) & m
			d[9] = (a[9] ^ b[9]) & m
			d[10] = (a[10] ^ b[10]) & m
			d[11] = (a[11] ^ b[11]) & m
			d[12] = (a[12] ^ b[12]) & m
			d[13] = (a[13] ^ b[13]) & m
			d[14] = (a[14] ^ b[14]) & m
			d[15] = (a[15] ^ b[15]) & m

		case OpNot:
			d, a := p(in.Dst), p(in.A)
			m := in.Mask
			d[0] = ^a[0] & m
			d[1] = ^a[1] & m
			d[2] = ^a[2] & m
			d[3] = ^a[3] & m
			d[4] = ^a[4] & m
			d[5] = ^a[5] & m
			d[6] = ^a[6] & m
			d[7] = ^a[7] & m
			d[8] = ^a[8] & m
			d[9] = ^a[9] & m
			d[10] = ^a[10] & m
			d[11] = ^a[11] & m
			d[12] = ^a[12] & m
			d[13] = ^a[13] & m
			d[14] = ^a[14] & m
			d[15] = ^a[15] & m

		case OpNeg:
			d, a := p(in.Dst), p(in.A)
			m := in.Mask
			d[0] = (-a[0]) & m
			d[1] = (-a[1]) & m
			d[2] = (-a[2]) & m
			d[3] = (-a[3]) & m
			d[4] = (-a[4]) & m
			d[5] = (-a[5]) & m
			d[6] = (-a[6]) & m
			d[7] = (-a[7]) & m
			d[8] = (-a[8]) & m
			d[9] = (-a[9]) & m
			d[10] = (-a[10]) & m
			d[11] = (-a[11]) & m
			d[12] = (-a[12]) & m
			d[13] = (-a[13]) & m
			d[14] = (-a[14]) & m
			d[15] = (-a[15]) & m

		case OpAndr:
			d, a := p(in.Dst), p(in.A)
			m := in.Mask
			d[0] = b2u(a[0] == m)
			d[1] = b2u(a[1] == m)
			d[2] = b2u(a[2] == m)
			d[3] = b2u(a[3] == m)
			d[4] = b2u(a[4] == m)
			d[5] = b2u(a[5] == m)
			d[6] = b2u(a[6] == m)
			d[7] = b2u(a[7] == m)
			d[8] = b2u(a[8] == m)
			d[9] = b2u(a[9] == m)
			d[10] = b2u(a[10] == m)
			d[11] = b2u(a[11] == m)
			d[12] = b2u(a[12] == m)
			d[13] = b2u(a[13] == m)
			d[14] = b2u(a[14] == m)
			d[15] = b2u(a[15] == m)

		case OpOrr:
			d, a := p(in.Dst), p(in.A)
			d[0] = b2u(a[0] != 0)
			d[1] = b2u(a[1] != 0)
			d[2] = b2u(a[2] != 0)
			d[3] = b2u(a[3] != 0)
			d[4] = b2u(a[4] != 0)
			d[5] = b2u(a[5] != 0)
			d[6] = b2u(a[6] != 0)
			d[7] = b2u(a[7] != 0)
			d[8] = b2u(a[8] != 0)
			d[9] = b2u(a[9] != 0)
			d[10] = b2u(a[10] != 0)
			d[11] = b2u(a[11] != 0)
			d[12] = b2u(a[12] != 0)
			d[13] = b2u(a[13] != 0)
			d[14] = b2u(a[14] != 0)
			d[15] = b2u(a[15] != 0)

		case OpXorr:
			d, a := p(in.Dst), p(in.A)
			d[0] = uint64(bits.OnesCount64(a[0]) & 1)
			d[1] = uint64(bits.OnesCount64(a[1]) & 1)
			d[2] = uint64(bits.OnesCount64(a[2]) & 1)
			d[3] = uint64(bits.OnesCount64(a[3]) & 1)
			d[4] = uint64(bits.OnesCount64(a[4]) & 1)
			d[5] = uint64(bits.OnesCount64(a[5]) & 1)
			d[6] = uint64(bits.OnesCount64(a[6]) & 1)
			d[7] = uint64(bits.OnesCount64(a[7]) & 1)
			d[8] = uint64(bits.OnesCount64(a[8]) & 1)
			d[9] = uint64(bits.OnesCount64(a[9]) & 1)
			d[10] = uint64(bits.OnesCount64(a[10]) & 1)
			d[11] = uint64(bits.OnesCount64(a[11]) & 1)
			d[12] = uint64(bits.OnesCount64(a[12]) & 1)
			d[13] = uint64(bits.OnesCount64(a[13]) & 1)
			d[14] = uint64(bits.OnesCount64(a[14]) & 1)
			d[15] = uint64(bits.OnesCount64(a[15]) & 1)

		case OpCat:
			d, a, b := p(in.Dst), p(in.A), p(in.B)
			m := in.Mask
			aux := in.Aux
			d[0] = (a[0]<<aux | b[0]) & m
			d[1] = (a[1]<<aux | b[1]) & m
			d[2] = (a[2]<<aux | b[2]) & m
			d[3] = (a[3]<<aux | b[3]) & m
			d[4] = (a[4]<<aux | b[4]) & m
			d[5] = (a[5]<<aux | b[5]) & m
			d[6] = (a[6]<<aux | b[6]) & m
			d[7] = (a[7]<<aux | b[7]) & m
			d[8] = (a[8]<<aux | b[8]) & m
			d[9] = (a[9]<<aux | b[9]) & m
			d[10] = (a[10]<<aux | b[10]) & m
			d[11] = (a[11]<<aux | b[11]) & m
			d[12] = (a[12]<<aux | b[12]) & m
			d[13] = (a[13]<<aux | b[13]) & m
			d[14] = (a[14]<<aux | b[14]) & m
			d[15] = (a[15]<<aux | b[15]) & m

		case OpShl:
			d, a := p(in.Dst), p(in.A)
			m := in.Mask
			aux := in.Aux
			d[0] = (a[0] << aux) & m
			d[1] = (a[1] << aux) & m
			d[2] = (a[2] << aux) & m
			d[3] = (a[3] << aux) & m
			d[4] = (a[4] << aux) & m
			d[5] = (a[5] << aux) & m
			d[6] = (a[6] << aux) & m
			d[7] = (a[7] << aux) & m
			d[8] = (a[8] << aux) & m
			d[9] = (a[9] << aux) & m
			d[10] = (a[10] << aux) & m
			d[11] = (a[11] << aux) & m
			d[12] = (a[12] << aux) & m
			d[13] = (a[13] << aux) & m
			d[14] = (a[14] << aux) & m
			d[15] = (a[15] << aux) & m

		case OpShr:
			d, a := p(in.Dst), p(in.A)
			m := in.Mask
			aux := in.Aux
			d[0] = (a[0] >> aux) & m
			d[1] = (a[1] >> aux) & m
			d[2] = (a[2] >> aux) & m
			d[3] = (a[3] >> aux) & m
			d[4] = (a[4] >> aux) & m
			d[5] = (a[5] >> aux) & m
			d[6] = (a[6] >> aux) & m
			d[7] = (a[7] >> aux) & m
			d[8] = (a[8] >> aux) & m
			d[9] = (a[9] >> aux) & m
			d[10] = (a[10] >> aux) & m
			d[11] = (a[11] >> aux) & m
			d[12] = (a[12] >> aux) & m
			d[13] = (a[13] >> aux) & m
			d[14] = (a[14] >> aux) & m
			d[15] = (a[15] >> aux) & m

		case OpSar:
			d, a := p(in.Dst), p(in.A)
			m := in.Mask
			aux := in.Aux
			d[0] = uint64(int64(a[0])>>aux) & m
			d[1] = uint64(int64(a[1])>>aux) & m
			d[2] = uint64(int64(a[2])>>aux) & m
			d[3] = uint64(int64(a[3])>>aux) & m
			d[4] = uint64(int64(a[4])>>aux) & m
			d[5] = uint64(int64(a[5])>>aux) & m
			d[6] = uint64(int64(a[6])>>aux) & m
			d[7] = uint64(int64(a[7])>>aux) & m
			d[8] = uint64(int64(a[8])>>aux) & m
			d[9] = uint64(int64(a[9])>>aux) & m
			d[10] = uint64(int64(a[10])>>aux) & m
			d[11] = uint64(int64(a[11])>>aux) & m
			d[12] = uint64(int64(a[12])>>aux) & m
			d[13] = uint64(int64(a[13])>>aux) & m
			d[14] = uint64(int64(a[14])>>aux) & m
			d[15] = uint64(int64(a[15])>>aux) & m

		case OpDshl:
			d, a, b := p(in.Dst), p(in.A), p(in.B)
			m := in.Mask
			if n := b[0]; n >= 64 {
				d[0] = 0
			} else {
				d[0] = (a[0] << n) & m
			}
			if n := b[1]; n >= 64 {
				d[1] = 0
			} else {
				d[1] = (a[1] << n) & m
			}
			if n := b[2]; n >= 64 {
				d[2] = 0
			} else {
				d[2] = (a[2] << n) & m
			}
			if n := b[3]; n >= 64 {
				d[3] = 0
			} else {
				d[3] = (a[3] << n) & m
			}
			if n := b[4]; n >= 64 {
				d[4] = 0
			} else {
				d[4] = (a[4] << n) & m
			}
			if n := b[5]; n >= 64 {
				d[5] = 0
			} else {
				d[5] = (a[5] << n) & m
			}
			if n := b[6]; n >= 64 {
				d[6] = 0
			} else {
				d[6] = (a[6] << n) & m
			}
			if n := b[7]; n >= 64 {
				d[7] = 0
			} else {
				d[7] = (a[7] << n) & m
			}
			if n := b[8]; n >= 64 {
				d[8] = 0
			} else {
				d[8] = (a[8] << n) & m
			}
			if n := b[9]; n >= 64 {
				d[9] = 0
			} else {
				d[9] = (a[9] << n) & m
			}
			if n := b[10]; n >= 64 {
				d[10] = 0
			} else {
				d[10] = (a[10] << n) & m
			}
			if n := b[11]; n >= 64 {
				d[11] = 0
			} else {
				d[11] = (a[11] << n) & m
			}
			if n := b[12]; n >= 64 {
				d[12] = 0
			} else {
				d[12] = (a[12] << n) & m
			}
			if n := b[13]; n >= 64 {
				d[13] = 0
			} else {
				d[13] = (a[13] << n) & m
			}
			if n := b[14]; n >= 64 {
				d[14] = 0
			} else {
				d[14] = (a[14] << n) & m
			}
			if n := b[15]; n >= 64 {
				d[15] = 0
			} else {
				d[15] = (a[15] << n) & m
			}

		case OpDshr:
			d, a, b := p(in.Dst), p(in.A), p(in.B)
			m := in.Mask
			if n := b[0]; n >= 64 {
				d[0] = 0
			} else {
				d[0] = (a[0] >> n) & m
			}
			if n := b[1]; n >= 64 {
				d[1] = 0
			} else {
				d[1] = (a[1] >> n) & m
			}
			if n := b[2]; n >= 64 {
				d[2] = 0
			} else {
				d[2] = (a[2] >> n) & m
			}
			if n := b[3]; n >= 64 {
				d[3] = 0
			} else {
				d[3] = (a[3] >> n) & m
			}
			if n := b[4]; n >= 64 {
				d[4] = 0
			} else {
				d[4] = (a[4] >> n) & m
			}
			if n := b[5]; n >= 64 {
				d[5] = 0
			} else {
				d[5] = (a[5] >> n) & m
			}
			if n := b[6]; n >= 64 {
				d[6] = 0
			} else {
				d[6] = (a[6] >> n) & m
			}
			if n := b[7]; n >= 64 {
				d[7] = 0
			} else {
				d[7] = (a[7] >> n) & m
			}
			if n := b[8]; n >= 64 {
				d[8] = 0
			} else {
				d[8] = (a[8] >> n) & m
			}
			if n := b[9]; n >= 64 {
				d[9] = 0
			} else {
				d[9] = (a[9] >> n) & m
			}
			if n := b[10]; n >= 64 {
				d[10] = 0
			} else {
				d[10] = (a[10] >> n) & m
			}
			if n := b[11]; n >= 64 {
				d[11] = 0
			} else {
				d[11] = (a[11] >> n) & m
			}
			if n := b[12]; n >= 64 {
				d[12] = 0
			} else {
				d[12] = (a[12] >> n) & m
			}
			if n := b[13]; n >= 64 {
				d[13] = 0
			} else {
				d[13] = (a[13] >> n) & m
			}
			if n := b[14]; n >= 64 {
				d[14] = 0
			} else {
				d[14] = (a[14] >> n) & m
			}
			if n := b[15]; n >= 64 {
				d[15] = 0
			} else {
				d[15] = (a[15] >> n) & m
			}

		case OpDsar:
			d, a, b := p(in.Dst), p(in.A), p(in.B)
			m := in.Mask
			{
				n := b[0]
				if n > 63 {
					n = 63
				}
				d[0] = uint64(int64(a[0])>>n) & m
			}
			{
				n := b[1]
				if n > 63 {
					n = 63
				}
				d[1] = uint64(int64(a[1])>>n) & m
			}
			{
				n := b[2]
				if n > 63 {
					n = 63
				}
				d[2] = uint64(int64(a[2])>>n) & m
			}
			{
				n := b[3]
				if n > 63 {
					n = 63
				}
				d[3] = uint64(int64(a[3])>>n) & m
			}
			{
				n := b[4]
				if n > 63 {
					n = 63
				}
				d[4] = uint64(int64(a[4])>>n) & m
			}
			{
				n := b[5]
				if n > 63 {
					n = 63
				}
				d[5] = uint64(int64(a[5])>>n) & m
			}
			{
				n := b[6]
				if n > 63 {
					n = 63
				}
				d[6] = uint64(int64(a[6])>>n) & m
			}
			{
				n := b[7]
				if n > 63 {
					n = 63
				}
				d[7] = uint64(int64(a[7])>>n) & m
			}
			{
				n := b[8]
				if n > 63 {
					n = 63
				}
				d[8] = uint64(int64(a[8])>>n) & m
			}
			{
				n := b[9]
				if n > 63 {
					n = 63
				}
				d[9] = uint64(int64(a[9])>>n) & m
			}
			{
				n := b[10]
				if n > 63 {
					n = 63
				}
				d[10] = uint64(int64(a[10])>>n) & m
			}
			{
				n := b[11]
				if n > 63 {
					n = 63
				}
				d[11] = uint64(int64(a[11])>>n) & m
			}
			{
				n := b[12]
				if n > 63 {
					n = 63
				}
				d[12] = uint64(int64(a[12])>>n) & m
			}
			{
				n := b[13]
				if n > 63 {
					n = 63
				}
				d[13] = uint64(int64(a[13])>>n) & m
			}
			{
				n := b[14]
				if n > 63 {
					n = 63
				}
				d[14] = uint64(int64(a[14])>>n) & m
			}
			{
				n := b[15]
				if n > 63 {
					n = 63
				}
				d[15] = uint64(int64(a[15])>>n) & m
			}

		case OpMux:
			d, a, b, c := p(in.Dst), p(in.A), p(in.B), p(in.C)
			m := in.Mask
			d[0] = sel(-b2u(a[0] != 0), b[0], c[0]) & m
			d[1] = sel(-b2u(a[1] != 0), b[1], c[1]) & m
			d[2] = sel(-b2u(a[2] != 0), b[2], c[2]) & m
			d[3] = sel(-b2u(a[3] != 0), b[3], c[3]) & m
			d[4] = sel(-b2u(a[4] != 0), b[4], c[4]) & m
			d[5] = sel(-b2u(a[5] != 0), b[5], c[5]) & m
			d[6] = sel(-b2u(a[6] != 0), b[6], c[6]) & m
			d[7] = sel(-b2u(a[7] != 0), b[7], c[7]) & m
			d[8] = sel(-b2u(a[8] != 0), b[8], c[8]) & m
			d[9] = sel(-b2u(a[9] != 0), b[9], c[9]) & m
			d[10] = sel(-b2u(a[10] != 0), b[10], c[10]) & m
			d[11] = sel(-b2u(a[11] != 0), b[11], c[11]) & m
			d[12] = sel(-b2u(a[12] != 0), b[12], c[12]) & m
			d[13] = sel(-b2u(a[13] != 0), b[13], c[13]) & m
			d[14] = sel(-b2u(a[14] != 0), b[14], c[14]) & m
			d[15] = sel(-b2u(a[15] != 0), b[15], c[15]) & m

		case OpSext:
			d, a := p(in.Dst), p(in.A)
			aux := in.Aux
			d[0] = signExtend64(a[0], aux)
			d[1] = signExtend64(a[1], aux)
			d[2] = signExtend64(a[2], aux)
			d[3] = signExtend64(a[3], aux)
			d[4] = signExtend64(a[4], aux)
			d[5] = signExtend64(a[5], aux)
			d[6] = signExtend64(a[6], aux)
			d[7] = signExtend64(a[7], aux)
			d[8] = signExtend64(a[8], aux)
			d[9] = signExtend64(a[9], aux)
			d[10] = signExtend64(a[10], aux)
			d[11] = signExtend64(a[11], aux)
			d[12] = signExtend64(a[12], aux)
			d[13] = signExtend64(a[13], aux)
			d[14] = signExtend64(a[14], aux)
			d[15] = signExtend64(a[15], aux)

		case OpMulHi:
			d, a, b := p(in.Dst), p(in.A), p(in.B)
			m := in.Mask
			{
				hi, _ := bits.Mul64(a[0], b[0])
				d[0] = hi & m
			}
			{
				hi, _ := bits.Mul64(a[1], b[1])
				d[1] = hi & m
			}
			{
				hi, _ := bits.Mul64(a[2], b[2])
				d[2] = hi & m
			}
			{
				hi, _ := bits.Mul64(a[3], b[3])
				d[3] = hi & m
			}
			{
				hi, _ := bits.Mul64(a[4], b[4])
				d[4] = hi & m
			}
			{
				hi, _ := bits.Mul64(a[5], b[5])
				d[5] = hi & m
			}
			{
				hi, _ := bits.Mul64(a[6], b[6])
				d[6] = hi & m
			}
			{
				hi, _ := bits.Mul64(a[7], b[7])
				d[7] = hi & m
			}
			{
				hi, _ := bits.Mul64(a[8], b[8])
				d[8] = hi & m
			}
			{
				hi, _ := bits.Mul64(a[9], b[9])
				d[9] = hi & m
			}
			{
				hi, _ := bits.Mul64(a[10], b[10])
				d[10] = hi & m
			}
			{
				hi, _ := bits.Mul64(a[11], b[11])
				d[11] = hi & m
			}
			{
				hi, _ := bits.Mul64(a[12], b[12])
				d[12] = hi & m
			}
			{
				hi, _ := bits.Mul64(a[13], b[13])
				d[13] = hi & m
			}
			{
				hi, _ := bits.Mul64(a[14], b[14])
				d[14] = hi & m
			}
			{
				hi, _ := bits.Mul64(a[15], b[15])
				d[15] = hi & m
			}

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
		default:
			panic(fmt.Sprintf("sim: bad linked opcode %v", in.Op))
		}
	}
}
