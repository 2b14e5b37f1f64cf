package sim

import (
	"fmt"
	"math/bits"
	"unsafe"
)

// col16 is one SoA column: the BatchWidth lanes' values of one state word,
// two cache lines.
type col16 = [BatchWidth]uint64

// sel is a branchless two-way select: x where the condition mask s is all
// ones, y where it is zero.
func sel(s, x, y uint64) uint64 { return x&s | y&^s }

// divLane is x/0 = 0 without a branch: divide by (b|1) when b is zero, then
// squash the bogus quotient with z-1 (= ^0 iff b != 0).
func divLane(a, b, m uint64) uint64 {
	z := b2u(b == 0)
	return (a / (b | z)) & (z - 1) & m
}

// mulHi is the high word of the 128-bit product a*b.
func mulHi(a, b uint64) uint64 {
	hi, _ := bits.Mul64(a, b)
	return hi
}

// remLane is x%0 = x, same guard as divLane with a fallback select.
func remLane(a, b, m uint64) uint64 {
	z := b2u(b == 0)
	return (a%(b|z)&(z-1) | a&-z) & m
}

func dsarOne(a, s, m uint64) uint64 {
	if s > 63 {
		s = 63 // arithmetic shift saturates at the sign bit
	}
	return uint64(int64(a)>>s) & m
}

// evalThreadBatch executes thread t's linked instruction stream once,
// applying each instruction to every lane of the column before moving to
// the next instruction: instruction fetch, opcode dispatch and operand
// decode are paid once per instruction instead of once per lane per
// instruction. It is the only batch executor; every BatchEngine, whatever
// its lane count, runs it over full BatchWidth-lane columns.
//
// Each narrow operation is sixteen explicit, independent statements over
// *col16 operands resolved with raw pointer arithmetic (one state word =
// BatchWidth*8 bytes): constant indices need no bounds checks or loop
// bookkeeping, and the statements have no cross-lane dependencies, so the
// out-of-order core overlaps them. The pointer arithmetic is sound because
// linked slot indices are bounded by the program's state-word count
// (internal/verify proves it) and e.st spans StateWords*BatchWidth words.
// A rolled `for l := range d` form of the same bodies measured 2.2x slower
// (DESIGN.md §9), which is why the unrolled form stays.
//
// The arms run over every lane including masked-out and padding lanes:
// they are total over arbitrary bit patterns (branchless division guards,
// Go's variable shifts saturate to zero), and under the private-temp model
// the eval phase writes only temps and shadow, so computing a lane that
// must not advance is unobservable (the commit in updateBatch is what the
// step mask gates). Memory operations and signed division keep per-lane
// semantics over the live lanes and honor the mask where they have side
// effects.
//
// The reference for every arm is evalLinked (linkexec.go): when touching
// the semantics of an operation, change it there first and mirror the
// per-lane expression here in all sixteen statements. TestBatchMatchesEngine
// holds the two together and checks that every narrow opcode is exercised.
func (e *BatchEngine) evalThreadBatch(t int, mask []bool) {
	code := e.lp.Threads[t].Code
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
	// col is the live-lane prefix of a column (per-lane fallbacks).
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
		case OpMulHi:
			d, a, b := p(in.Dst), p(in.A), p(in.B)
			m := in.Mask
			d[0] = mulHi(a[0], b[0]) & m
			d[1] = mulHi(a[1], b[1]) & m
			d[2] = mulHi(a[2], b[2]) & m
			d[3] = mulHi(a[3], b[3]) & m
			d[4] = mulHi(a[4], b[4]) & m
			d[5] = mulHi(a[5], b[5]) & m
			d[6] = mulHi(a[6], b[6]) & m
			d[7] = mulHi(a[7], b[7]) & m
			d[8] = mulHi(a[8], b[8]) & m
			d[9] = mulHi(a[9], b[9]) & m
			d[10] = mulHi(a[10], b[10]) & m
			d[11] = mulHi(a[11], b[11]) & m
			d[12] = mulHi(a[12], b[12]) & m
			d[13] = mulHi(a[13], b[13]) & m
			d[14] = mulHi(a[14], b[14]) & m
			d[15] = mulHi(a[15], b[15]) & m
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
		case OpAnd:
			d, a, b := p(in.Dst), p(in.A), p(in.B)
			m := in.Mask
			d[0] = a[0] & b[0] & m
			d[1] = a[1] & b[1] & m
			d[2] = a[2] & b[2] & m
			d[3] = a[3] & b[3] & m
			d[4] = a[4] & b[4] & m
			d[5] = a[5] & b[5] & m
			d[6] = a[6] & b[6] & m
			d[7] = a[7] & b[7] & m
			d[8] = a[8] & b[8] & m
			d[9] = a[9] & b[9] & m
			d[10] = a[10] & b[10] & m
			d[11] = a[11] & b[11] & m
			d[12] = a[12] & b[12] & m
			d[13] = a[13] & b[13] & m
			d[14] = a[14] & b[14] & m
			d[15] = a[15] & b[15] & m
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
			d[0] = -a[0] & m
			d[1] = -a[1] & m
			d[2] = -a[2] & m
			d[3] = -a[3] & m
			d[4] = -a[4] & m
			d[5] = -a[5] & m
			d[6] = -a[6] & m
			d[7] = -a[7] & m
			d[8] = -a[8] & m
			d[9] = -a[9] & m
			d[10] = -a[10] & m
			d[11] = -a[11] & m
			d[12] = -a[12] & m
			d[13] = -a[13] & m
			d[14] = -a[14] & m
			d[15] = -a[15] & m
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
			sh, m := in.Aux, in.Mask
			d[0] = (a[0]<<sh | b[0]) & m
			d[1] = (a[1]<<sh | b[1]) & m
			d[2] = (a[2]<<sh | b[2]) & m
			d[3] = (a[3]<<sh | b[3]) & m
			d[4] = (a[4]<<sh | b[4]) & m
			d[5] = (a[5]<<sh | b[5]) & m
			d[6] = (a[6]<<sh | b[6]) & m
			d[7] = (a[7]<<sh | b[7]) & m
			d[8] = (a[8]<<sh | b[8]) & m
			d[9] = (a[9]<<sh | b[9]) & m
			d[10] = (a[10]<<sh | b[10]) & m
			d[11] = (a[11]<<sh | b[11]) & m
			d[12] = (a[12]<<sh | b[12]) & m
			d[13] = (a[13]<<sh | b[13]) & m
			d[14] = (a[14]<<sh | b[14]) & m
			d[15] = (a[15]<<sh | b[15]) & m
		case OpShl:
			d, a := p(in.Dst), p(in.A)
			sh, m := in.Aux, in.Mask
			d[0] = a[0] << sh & m
			d[1] = a[1] << sh & m
			d[2] = a[2] << sh & m
			d[3] = a[3] << sh & m
			d[4] = a[4] << sh & m
			d[5] = a[5] << sh & m
			d[6] = a[6] << sh & m
			d[7] = a[7] << sh & m
			d[8] = a[8] << sh & m
			d[9] = a[9] << sh & m
			d[10] = a[10] << sh & m
			d[11] = a[11] << sh & m
			d[12] = a[12] << sh & m
			d[13] = a[13] << sh & m
			d[14] = a[14] << sh & m
			d[15] = a[15] << sh & m
		case OpShr:
			d, a := p(in.Dst), p(in.A)
			sh, m := in.Aux, in.Mask
			d[0] = a[0] >> sh & m
			d[1] = a[1] >> sh & m
			d[2] = a[2] >> sh & m
			d[3] = a[3] >> sh & m
			d[4] = a[4] >> sh & m
			d[5] = a[5] >> sh & m
			d[6] = a[6] >> sh & m
			d[7] = a[7] >> sh & m
			d[8] = a[8] >> sh & m
			d[9] = a[9] >> sh & m
			d[10] = a[10] >> sh & m
			d[11] = a[11] >> sh & m
			d[12] = a[12] >> sh & m
			d[13] = a[13] >> sh & m
			d[14] = a[14] >> sh & m
			d[15] = a[15] >> sh & m
		case OpSar:
			d, a := p(in.Dst), p(in.A)
			sh, m := in.Aux, in.Mask
			d[0] = uint64(int64(a[0])>>sh) & m
			d[1] = uint64(int64(a[1])>>sh) & m
			d[2] = uint64(int64(a[2])>>sh) & m
			d[3] = uint64(int64(a[3])>>sh) & m
			d[4] = uint64(int64(a[4])>>sh) & m
			d[5] = uint64(int64(a[5])>>sh) & m
			d[6] = uint64(int64(a[6])>>sh) & m
			d[7] = uint64(int64(a[7])>>sh) & m
			d[8] = uint64(int64(a[8])>>sh) & m
			d[9] = uint64(int64(a[9])>>sh) & m
			d[10] = uint64(int64(a[10])>>sh) & m
			d[11] = uint64(int64(a[11])>>sh) & m
			d[12] = uint64(int64(a[12])>>sh) & m
			d[13] = uint64(int64(a[13])>>sh) & m
			d[14] = uint64(int64(a[14])>>sh) & m
			d[15] = uint64(int64(a[15])>>sh) & m
		case OpDshl:
			d, a, b := p(in.Dst), p(in.A), p(in.B)
			m := in.Mask
			d[0] = a[0] << b[0] & m
			d[1] = a[1] << b[1] & m
			d[2] = a[2] << b[2] & m
			d[3] = a[3] << b[3] & m
			d[4] = a[4] << b[4] & m
			d[5] = a[5] << b[5] & m
			d[6] = a[6] << b[6] & m
			d[7] = a[7] << b[7] & m
			d[8] = a[8] << b[8] & m
			d[9] = a[9] << b[9] & m
			d[10] = a[10] << b[10] & m
			d[11] = a[11] << b[11] & m
			d[12] = a[12] << b[12] & m
			d[13] = a[13] << b[13] & m
			d[14] = a[14] << b[14] & m
			d[15] = a[15] << b[15] & m
		case OpDshr:
			d, a, b := p(in.Dst), p(in.A), p(in.B)
			m := in.Mask
			d[0] = a[0] >> b[0] & m
			d[1] = a[1] >> b[1] & m
			d[2] = a[2] >> b[2] & m
			d[3] = a[3] >> b[3] & m
			d[4] = a[4] >> b[4] & m
			d[5] = a[5] >> b[5] & m
			d[6] = a[6] >> b[6] & m
			d[7] = a[7] >> b[7] & m
			d[8] = a[8] >> b[8] & m
			d[9] = a[9] >> b[9] & m
			d[10] = a[10] >> b[10] & m
			d[11] = a[11] >> b[11] & m
			d[12] = a[12] >> b[12] & m
			d[13] = a[13] >> b[13] & m
			d[14] = a[14] >> b[14] & m
			d[15] = a[15] >> b[15] & m
		case OpDsar:
			d, a, b := p(in.Dst), p(in.A), p(in.B)
			m := in.Mask
			d[0] = dsarOne(a[0], b[0], m)
			d[1] = dsarOne(a[1], b[1], m)
			d[2] = dsarOne(a[2], b[2], m)
			d[3] = dsarOne(a[3], b[3], m)
			d[4] = dsarOne(a[4], b[4], m)
			d[5] = dsarOne(a[5], b[5], m)
			d[6] = dsarOne(a[6], b[6], m)
			d[7] = dsarOne(a[7], b[7], m)
			d[8] = dsarOne(a[8], b[8], m)
			d[9] = dsarOne(a[9], b[9], m)
			d[10] = dsarOne(a[10], b[10], m)
			d[11] = dsarOne(a[11], b[11], m)
			d[12] = dsarOne(a[12], b[12], m)
			d[13] = dsarOne(a[13], b[13], m)
			d[14] = dsarOne(a[14], b[14], m)
			d[15] = dsarOne(a[15], b[15], m)
		case OpSext:
			d, a := p(in.Dst), p(in.A)
			w := in.Aux
			d[0] = signExtend64(a[0], w)
			d[1] = signExtend64(a[1], w)
			d[2] = signExtend64(a[2], w)
			d[3] = signExtend64(a[3], w)
			d[4] = signExtend64(a[4], w)
			d[5] = signExtend64(a[5], w)
			d[6] = signExtend64(a[6], w)
			d[7] = signExtend64(a[7], w)
			d[8] = signExtend64(a[8], w)
			d[9] = signExtend64(a[9], w)
			d[10] = signExtend64(a[10], w)
			d[11] = signExtend64(a[11], w)
			d[12] = signExtend64(a[12], w)
			d[13] = signExtend64(a[13], w)
			d[14] = signExtend64(a[14], w)
			d[15] = signExtend64(a[15], w)
		case OpMux:
			d, a, b := p(in.Dst), p(in.A), p(in.B)
			c := p(in.C)
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
