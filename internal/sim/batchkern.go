package sim

import "math/bits"

// 8-lane kernels for the batch executor (batchexec.go). Each kernel applies
// one linked operation to one cache-line block — eight lanes of one SoA
// state-word column — as eight explicit, independent statements: constant
// indices into *[8]uint64 need no bounds checks and no loop bookkeeping,
// and the statements have no cross-lane dependencies, so the out-of-order
// core overlaps them freely. This is where the batch engine's throughput
// comes from: the executor pays instruction fetch, dispatch, and operand
// decode once per block of eight lanes instead of once per lane.
//
// All kernels are total over arbitrary bit patterns (division guards are
// branchless, Go's variable shifts saturate to zero), so running them over
// the padding lanes of a partially filled block is harmless.

// blk8 is one cache line of one state word: eight lanes' values.
type blk8 = [8]uint64

// sel is a branchless two-way select: x where the condition mask s is all
// ones, y where it is zero.
func sel(s, x, y uint64) uint64 { return x&s | y&^s }

func copy8(dv, av []blk8, m uint64) {
	for ci := range dv {
		d, a := &dv[ci], &av[ci]
		d[0] = a[0] & m
		d[1] = a[1] & m
		d[2] = a[2] & m
		d[3] = a[3] & m
		d[4] = a[4] & m
		d[5] = a[5] & m
		d[6] = a[6] & m
		d[7] = a[7] & m
	}
}

func add8(dv, av, bv []blk8, m uint64) {
	for ci := range dv {
		d, a, b := &dv[ci], &av[ci], &bv[ci]
		d[0] = (a[0] + b[0]) & m
		d[1] = (a[1] + b[1]) & m
		d[2] = (a[2] + b[2]) & m
		d[3] = (a[3] + b[3]) & m
		d[4] = (a[4] + b[4]) & m
		d[5] = (a[5] + b[5]) & m
		d[6] = (a[6] + b[6]) & m
		d[7] = (a[7] + b[7]) & m
	}
}

func sub8(dv, av, bv []blk8, m uint64) {
	for ci := range dv {
		d, a, b := &dv[ci], &av[ci], &bv[ci]
		d[0] = (a[0] - b[0]) & m
		d[1] = (a[1] - b[1]) & m
		d[2] = (a[2] - b[2]) & m
		d[3] = (a[3] - b[3]) & m
		d[4] = (a[4] - b[4]) & m
		d[5] = (a[5] - b[5]) & m
		d[6] = (a[6] - b[6]) & m
		d[7] = (a[7] - b[7]) & m
	}
}

func mul8(dv, av, bv []blk8, m uint64) {
	for ci := range dv {
		d, a, b := &dv[ci], &av[ci], &bv[ci]
		d[0] = (a[0] * b[0]) & m
		d[1] = (a[1] * b[1]) & m
		d[2] = (a[2] * b[2]) & m
		d[3] = (a[3] * b[3]) & m
		d[4] = (a[4] * b[4]) & m
		d[5] = (a[5] * b[5]) & m
		d[6] = (a[6] * b[6]) & m
		d[7] = (a[7] * b[7]) & m
	}
}

// divLane is x/0 = 0 without a branch: divide by (b|1) when b is zero, then
// squash the bogus quotient with z-1 (= ^0 iff b != 0).
func divLane(a, b, m uint64) uint64 {
	z := b2u(b == 0)
	return (a / (b | z)) & (z - 1) & m
}

func div8(dv, av, bv []blk8, m uint64) {
	for ci := range dv {
		d, a, b := &dv[ci], &av[ci], &bv[ci]
		d[0] = divLane(a[0], b[0], m)
		d[1] = divLane(a[1], b[1], m)
		d[2] = divLane(a[2], b[2], m)
		d[3] = divLane(a[3], b[3], m)
		d[4] = divLane(a[4], b[4], m)
		d[5] = divLane(a[5], b[5], m)
		d[6] = divLane(a[6], b[6], m)
		d[7] = divLane(a[7], b[7], m)
	}
}

// remLane is x%0 = x, same guard as divLane with a fallback select.
func remLane(a, b, m uint64) uint64 {
	z := b2u(b == 0)
	return (a%(b|z)&(z-1) | a&-z) & m
}

func rem8(dv, av, bv []blk8, m uint64) {
	for ci := range dv {
		d, a, b := &dv[ci], &av[ci], &bv[ci]
		d[0] = remLane(a[0], b[0], m)
		d[1] = remLane(a[1], b[1], m)
		d[2] = remLane(a[2], b[2], m)
		d[3] = remLane(a[3], b[3], m)
		d[4] = remLane(a[4], b[4], m)
		d[5] = remLane(a[5], b[5], m)
		d[6] = remLane(a[6], b[6], m)
		d[7] = remLane(a[7], b[7], m)
	}
}

func and8(dv, av, bv []blk8, m uint64) {
	for ci := range dv {
		d, a, b := &dv[ci], &av[ci], &bv[ci]
		d[0] = a[0] & b[0] & m
		d[1] = a[1] & b[1] & m
		d[2] = a[2] & b[2] & m
		d[3] = a[3] & b[3] & m
		d[4] = a[4] & b[4] & m
		d[5] = a[5] & b[5] & m
		d[6] = a[6] & b[6] & m
		d[7] = a[7] & b[7] & m
	}
}

func or8(dv, av, bv []blk8, m uint64) {
	for ci := range dv {
		d, a, b := &dv[ci], &av[ci], &bv[ci]
		d[0] = (a[0] | b[0]) & m
		d[1] = (a[1] | b[1]) & m
		d[2] = (a[2] | b[2]) & m
		d[3] = (a[3] | b[3]) & m
		d[4] = (a[4] | b[4]) & m
		d[5] = (a[5] | b[5]) & m
		d[6] = (a[6] | b[6]) & m
		d[7] = (a[7] | b[7]) & m
	}
}

func xor8(dv, av, bv []blk8, m uint64) {
	for ci := range dv {
		d, a, b := &dv[ci], &av[ci], &bv[ci]
		d[0] = (a[0] ^ b[0]) & m
		d[1] = (a[1] ^ b[1]) & m
		d[2] = (a[2] ^ b[2]) & m
		d[3] = (a[3] ^ b[3]) & m
		d[4] = (a[4] ^ b[4]) & m
		d[5] = (a[5] ^ b[5]) & m
		d[6] = (a[6] ^ b[6]) & m
		d[7] = (a[7] ^ b[7]) & m
	}
}

func not8(dv, av []blk8, m uint64) {
	for ci := range dv {
		d, a := &dv[ci], &av[ci]
		d[0] = ^a[0] & m
		d[1] = ^a[1] & m
		d[2] = ^a[2] & m
		d[3] = ^a[3] & m
		d[4] = ^a[4] & m
		d[5] = ^a[5] & m
		d[6] = ^a[6] & m
		d[7] = ^a[7] & m
	}
}

func neg8(dv, av []blk8, m uint64) {
	for ci := range dv {
		d, a := &dv[ci], &av[ci]
		d[0] = -a[0] & m
		d[1] = -a[1] & m
		d[2] = -a[2] & m
		d[3] = -a[3] & m
		d[4] = -a[4] & m
		d[5] = -a[5] & m
		d[6] = -a[6] & m
		d[7] = -a[7] & m
	}
}

func andr8(dv, av []blk8, m uint64) {
	for ci := range dv {
		d, a := &dv[ci], &av[ci]
		d[0] = b2u(a[0] == m)
		d[1] = b2u(a[1] == m)
		d[2] = b2u(a[2] == m)
		d[3] = b2u(a[3] == m)
		d[4] = b2u(a[4] == m)
		d[5] = b2u(a[5] == m)
		d[6] = b2u(a[6] == m)
		d[7] = b2u(a[7] == m)
	}
}

func orr8(dv, av []blk8) {
	for ci := range dv {
		d, a := &dv[ci], &av[ci]
		d[0] = b2u(a[0] != 0)
		d[1] = b2u(a[1] != 0)
		d[2] = b2u(a[2] != 0)
		d[3] = b2u(a[3] != 0)
		d[4] = b2u(a[4] != 0)
		d[5] = b2u(a[5] != 0)
		d[6] = b2u(a[6] != 0)
		d[7] = b2u(a[7] != 0)
	}
}

func xorr8(dv, av []blk8) {
	for ci := range dv {
		d, a := &dv[ci], &av[ci]
		d[0] = uint64(bits.OnesCount64(a[0]) & 1)
		d[1] = uint64(bits.OnesCount64(a[1]) & 1)
		d[2] = uint64(bits.OnesCount64(a[2]) & 1)
		d[3] = uint64(bits.OnesCount64(a[3]) & 1)
		d[4] = uint64(bits.OnesCount64(a[4]) & 1)
		d[5] = uint64(bits.OnesCount64(a[5]) & 1)
		d[6] = uint64(bits.OnesCount64(a[6]) & 1)
		d[7] = uint64(bits.OnesCount64(a[7]) & 1)
	}
}

func cat8(dv, av, bv []blk8, sh uint32, m uint64) {
	for ci := range dv {
		d, a, b := &dv[ci], &av[ci], &bv[ci]
		d[0] = (a[0]<<sh | b[0]) & m
		d[1] = (a[1]<<sh | b[1]) & m
		d[2] = (a[2]<<sh | b[2]) & m
		d[3] = (a[3]<<sh | b[3]) & m
		d[4] = (a[4]<<sh | b[4]) & m
		d[5] = (a[5]<<sh | b[5]) & m
		d[6] = (a[6]<<sh | b[6]) & m
		d[7] = (a[7]<<sh | b[7]) & m
	}
}

func shl8(dv, av []blk8, sh uint32, m uint64) {
	for ci := range dv {
		d, a := &dv[ci], &av[ci]
		d[0] = a[0] << sh & m
		d[1] = a[1] << sh & m
		d[2] = a[2] << sh & m
		d[3] = a[3] << sh & m
		d[4] = a[4] << sh & m
		d[5] = a[5] << sh & m
		d[6] = a[6] << sh & m
		d[7] = a[7] << sh & m
	}
}

func shr8(dv, av []blk8, sh uint32, m uint64) {
	for ci := range dv {
		d, a := &dv[ci], &av[ci]
		d[0] = a[0] >> sh & m
		d[1] = a[1] >> sh & m
		d[2] = a[2] >> sh & m
		d[3] = a[3] >> sh & m
		d[4] = a[4] >> sh & m
		d[5] = a[5] >> sh & m
		d[6] = a[6] >> sh & m
		d[7] = a[7] >> sh & m
	}
}

func sar8(dv, av []blk8, sh uint32, m uint64) {
	for ci := range dv {
		d, a := &dv[ci], &av[ci]
		d[0] = uint64(int64(a[0])>>sh) & m
		d[1] = uint64(int64(a[1])>>sh) & m
		d[2] = uint64(int64(a[2])>>sh) & m
		d[3] = uint64(int64(a[3])>>sh) & m
		d[4] = uint64(int64(a[4])>>sh) & m
		d[5] = uint64(int64(a[5])>>sh) & m
		d[6] = uint64(int64(a[6])>>sh) & m
		d[7] = uint64(int64(a[7])>>sh) & m
	}
}

// dshl8/dshr8 need no >= 64 guard: Go's variable shifts already yield zero
// there, which is exactly the dynamic-shift overflow rule.
func dshl8(dv, av, bv []blk8, m uint64) {
	for ci := range dv {
		d, a, b := &dv[ci], &av[ci], &bv[ci]
		d[0] = a[0] << b[0] & m
		d[1] = a[1] << b[1] & m
		d[2] = a[2] << b[2] & m
		d[3] = a[3] << b[3] & m
		d[4] = a[4] << b[4] & m
		d[5] = a[5] << b[5] & m
		d[6] = a[6] << b[6] & m
		d[7] = a[7] << b[7] & m
	}
}

func dshr8(dv, av, bv []blk8, m uint64) {
	for ci := range dv {
		d, a, b := &dv[ci], &av[ci], &bv[ci]
		d[0] = a[0] >> b[0] & m
		d[1] = a[1] >> b[1] & m
		d[2] = a[2] >> b[2] & m
		d[3] = a[3] >> b[3] & m
		d[4] = a[4] >> b[4] & m
		d[5] = a[5] >> b[5] & m
		d[6] = a[6] >> b[6] & m
		d[7] = a[7] >> b[7] & m
	}
}

func dsar8(dv, av, bv []blk8, m uint64) {
	for ci := range dv {
		d, a, b := &dv[ci], &av[ci], &bv[ci]
		d[0] = dsarOne(a[0], b[0], m)
		d[1] = dsarOne(a[1], b[1], m)
		d[2] = dsarOne(a[2], b[2], m)
		d[3] = dsarOne(a[3], b[3], m)
		d[4] = dsarOne(a[4], b[4], m)
		d[5] = dsarOne(a[5], b[5], m)
		d[6] = dsarOne(a[6], b[6], m)
		d[7] = dsarOne(a[7], b[7], m)
	}
}

func dsarOne(a, s, m uint64) uint64 {
	if s > 63 {
		s = 63 // arithmetic shift saturates at the sign bit
	}
	return uint64(int64(a)>>s) & m
}

func mux8(dv, av, bv, cv []blk8, m uint64) {
	for ci := range dv {
		d, a, b, c := &dv[ci], &av[ci], &bv[ci], &cv[ci]
		d[0] = sel(-b2u(a[0] != 0), b[0], c[0]) & m
		d[1] = sel(-b2u(a[1] != 0), b[1], c[1]) & m
		d[2] = sel(-b2u(a[2] != 0), b[2], c[2]) & m
		d[3] = sel(-b2u(a[3] != 0), b[3], c[3]) & m
		d[4] = sel(-b2u(a[4] != 0), b[4], c[4]) & m
		d[5] = sel(-b2u(a[5] != 0), b[5], c[5]) & m
		d[6] = sel(-b2u(a[6] != 0), b[6], c[6]) & m
		d[7] = sel(-b2u(a[7] != 0), b[7], c[7]) & m
	}
}

func sext8(dv, av []blk8, w uint32) {
	for ci := range dv {
		d, a := &dv[ci], &av[ci]
		d[0] = signExtend64(a[0], w)
		d[1] = signExtend64(a[1], w)
		d[2] = signExtend64(a[2], w)
		d[3] = signExtend64(a[3], w)
		d[4] = signExtend64(a[4], w)
		d[5] = signExtend64(a[5], w)
		d[6] = signExtend64(a[6], w)
		d[7] = signExtend64(a[7], w)
	}
}

func lt8(dv, av, bv []blk8) {
	for ci := range dv {
		d, a, b := &dv[ci], &av[ci], &bv[ci]
		d[0] = b2u(a[0] < b[0])
		d[1] = b2u(a[1] < b[1])
		d[2] = b2u(a[2] < b[2])
		d[3] = b2u(a[3] < b[3])
		d[4] = b2u(a[4] < b[4])
		d[5] = b2u(a[5] < b[5])
		d[6] = b2u(a[6] < b[6])
		d[7] = b2u(a[7] < b[7])
	}
}

func leq8(dv, av, bv []blk8) {
	for ci := range dv {
		d, a, b := &dv[ci], &av[ci], &bv[ci]
		d[0] = b2u(a[0] <= b[0])
		d[1] = b2u(a[1] <= b[1])
		d[2] = b2u(a[2] <= b[2])
		d[3] = b2u(a[3] <= b[3])
		d[4] = b2u(a[4] <= b[4])
		d[5] = b2u(a[5] <= b[5])
		d[6] = b2u(a[6] <= b[6])
		d[7] = b2u(a[7] <= b[7])
	}
}

func gt8(dv, av, bv []blk8) {
	for ci := range dv {
		d, a, b := &dv[ci], &av[ci], &bv[ci]
		d[0] = b2u(a[0] > b[0])
		d[1] = b2u(a[1] > b[1])
		d[2] = b2u(a[2] > b[2])
		d[3] = b2u(a[3] > b[3])
		d[4] = b2u(a[4] > b[4])
		d[5] = b2u(a[5] > b[5])
		d[6] = b2u(a[6] > b[6])
		d[7] = b2u(a[7] > b[7])
	}
}

func geq8(dv, av, bv []blk8) {
	for ci := range dv {
		d, a, b := &dv[ci], &av[ci], &bv[ci]
		d[0] = b2u(a[0] >= b[0])
		d[1] = b2u(a[1] >= b[1])
		d[2] = b2u(a[2] >= b[2])
		d[3] = b2u(a[3] >= b[3])
		d[4] = b2u(a[4] >= b[4])
		d[5] = b2u(a[5] >= b[5])
		d[6] = b2u(a[6] >= b[6])
		d[7] = b2u(a[7] >= b[7])
	}
}

func slt8(dv, av, bv []blk8) {
	for ci := range dv {
		d, a, b := &dv[ci], &av[ci], &bv[ci]
		d[0] = b2u(int64(a[0]) < int64(b[0]))
		d[1] = b2u(int64(a[1]) < int64(b[1]))
		d[2] = b2u(int64(a[2]) < int64(b[2]))
		d[3] = b2u(int64(a[3]) < int64(b[3]))
		d[4] = b2u(int64(a[4]) < int64(b[4]))
		d[5] = b2u(int64(a[5]) < int64(b[5]))
		d[6] = b2u(int64(a[6]) < int64(b[6]))
		d[7] = b2u(int64(a[7]) < int64(b[7]))
	}
}

func sleq8(dv, av, bv []blk8) {
	for ci := range dv {
		d, a, b := &dv[ci], &av[ci], &bv[ci]
		d[0] = b2u(int64(a[0]) <= int64(b[0]))
		d[1] = b2u(int64(a[1]) <= int64(b[1]))
		d[2] = b2u(int64(a[2]) <= int64(b[2]))
		d[3] = b2u(int64(a[3]) <= int64(b[3]))
		d[4] = b2u(int64(a[4]) <= int64(b[4]))
		d[5] = b2u(int64(a[5]) <= int64(b[5]))
		d[6] = b2u(int64(a[6]) <= int64(b[6]))
		d[7] = b2u(int64(a[7]) <= int64(b[7]))
	}
}

func sgt8(dv, av, bv []blk8) {
	for ci := range dv {
		d, a, b := &dv[ci], &av[ci], &bv[ci]
		d[0] = b2u(int64(a[0]) > int64(b[0]))
		d[1] = b2u(int64(a[1]) > int64(b[1]))
		d[2] = b2u(int64(a[2]) > int64(b[2]))
		d[3] = b2u(int64(a[3]) > int64(b[3]))
		d[4] = b2u(int64(a[4]) > int64(b[4]))
		d[5] = b2u(int64(a[5]) > int64(b[5]))
		d[6] = b2u(int64(a[6]) > int64(b[6]))
		d[7] = b2u(int64(a[7]) > int64(b[7]))
	}
}

func sgeq8(dv, av, bv []blk8) {
	for ci := range dv {
		d, a, b := &dv[ci], &av[ci], &bv[ci]
		d[0] = b2u(int64(a[0]) >= int64(b[0]))
		d[1] = b2u(int64(a[1]) >= int64(b[1]))
		d[2] = b2u(int64(a[2]) >= int64(b[2]))
		d[3] = b2u(int64(a[3]) >= int64(b[3]))
		d[4] = b2u(int64(a[4]) >= int64(b[4]))
		d[5] = b2u(int64(a[5]) >= int64(b[5]))
		d[6] = b2u(int64(a[6]) >= int64(b[6]))
		d[7] = b2u(int64(a[7]) >= int64(b[7]))
	}
}

func eq8(dv, av, bv []blk8) {
	for ci := range dv {
		d, a, b := &dv[ci], &av[ci], &bv[ci]
		d[0] = b2u(a[0] == b[0])
		d[1] = b2u(a[1] == b[1])
		d[2] = b2u(a[2] == b[2])
		d[3] = b2u(a[3] == b[3])
		d[4] = b2u(a[4] == b[4])
		d[5] = b2u(a[5] == b[5])
		d[6] = b2u(a[6] == b[6])
		d[7] = b2u(a[7] == b[7])
	}
}

func neq8(dv, av, bv []blk8) {
	for ci := range dv {
		d, a, b := &dv[ci], &av[ci], &bv[ci]
		d[0] = b2u(a[0] != b[0])
		d[1] = b2u(a[1] != b[1])
		d[2] = b2u(a[2] != b[2])
		d[3] = b2u(a[3] != b[3])
		d[4] = b2u(a[4] != b[4])
		d[5] = b2u(a[5] != b[5])
		d[6] = b2u(a[6] != b[6])
		d[7] = b2u(a[7] != b[7])
	}
}
