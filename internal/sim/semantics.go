package sim

import "repro/internal/optable"

// Exported per-opcode semantics surface for analyses outside the package,
// chiefly the translation validator (internal/verify/tvalid). Traits come
// from internal/optable, the table the executors are generated from, and
// constant folding and concrete probing both route through EvalOp, which
// runs the engines' own executor (evalLinked) on a one-instruction probe,
// so executor, optimizer and validator cannot drift apart.

// OpTraits classifies one narrow opcode (optable.Traits documents the
// fields).
type OpTraits = optable.Traits

// TraitsOf returns the semantic classification of a narrow opcode.
func TraitsOf(op OpCode) OpTraits {
	if op >= numOpCodes {
		return OpTraits{}
	}
	return optable.Table[op].Traits
}

// EvalOp computes the narrow result of one pure opcode on concrete operands
// by running evalLinked on a single-instruction probe over the state
// [a, b, c, dst]. ok is false for ops EvalOp cannot fold: OpNop and the
// memory ops.
func EvalOp(op OpCode, aux uint32, mask uint64, a, b, c uint64) (uint64, bool) {
	if !TraitsOf(op).Pure {
		return 0, false
	}
	st := [4]uint64{a, b, c}
	probe := [1]LInstr{{Op: op, Dst: 3, A: 0, B: 1, C: 2, Aux: aux, Mask: mask}}
	evalLinked(probe[:], st[:], nil, nil)
	return st[3], true
}

// SignExtend64 exposes the executor's sign extension: the low w bits of x
// extended to 64 bits (w == 0 or w >= 64 returns x unchanged, matching
// OpSext with Aux 0 meaning "as-is").
func SignExtend64(x uint64, w uint32) uint64 { return signExtend64(x, w) }
