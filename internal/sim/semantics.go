package sim

// Exported per-opcode semantics surface for analyses outside the package,
// chiefly the translation validator (internal/verify/tvalid). The validator
// never re-implements an opcode: constant folding and concrete probing both
// route through EvalOp, which runs the engines' own executor (evalLinked)
// on a one-instruction probe — as the optimizer's foldConstants does — so
// executor, optimizer and validator cannot drift apart.

// OpTraits classifies one narrow opcode for symbolic analysis.
type OpTraits struct {
	// Reads is the operand arity (same as OpReads).
	Reads int
	// Commutative: dst is invariant under swapping operands A and B.
	Commutative bool
	// MasksResult: the executor truncates the stored result with in.Mask.
	// False for compares, reductions, and OpSext, whose results the
	// executor stores untouched.
	MasksResult bool
	// MaskIsOperand: in.Mask is a semantic comparand, not a truncation
	// (OpAndr compares a against the mask itself).
	MaskIsOperand bool
	// Pure: the op is a data-only narrow computation EvalOp can fold —
	// no memory, wide, or side-effecting behavior.
	Pure bool
}

// opTraitsTable is indexed by OpCode. Built once; TraitsOf is the accessor.
var opTraitsTable = func() [numOpCodes]OpTraits {
	var t [numOpCodes]OpTraits
	for op := OpCode(0); op < numOpCodes; op++ {
		tr := OpTraits{Reads: opReads(op), Pure: true}
		switch op {
		case OpNop, OpWide, OpMemWr, OpMemRd:
			tr.Pure = false
		}
		switch op {
		case OpAdd, OpMul, OpAnd, OpOr, OpXor, OpEq, OpNeq:
			tr.Commutative = true
		}
		switch op {
		case OpCopy, OpAdd, OpSub, OpMul, OpDiv, OpRem, OpSDiv, OpSRem,
			OpAnd, OpOr, OpXor, OpNot, OpNeg, OpCat, OpShl, OpShr, OpSar,
			OpDshl, OpDshr, OpDsar, OpMux, OpMemRd:
			tr.MasksResult = true
		}
		if op == OpAndr {
			tr.MaskIsOperand = true
		}
		t[op] = tr
	}
	return t
}()

// TraitsOf returns the semantic classification of a narrow opcode.
func TraitsOf(op OpCode) OpTraits {
	if op >= numOpCodes {
		return OpTraits{}
	}
	return opTraitsTable[op]
}

// EvalOp computes the narrow result of one pure opcode on concrete operands
// by running evalLinked on a single-instruction probe over the state
// [a, b, c, dst]. ok is false for ops EvalOp cannot fold: OpNop, OpWide,
// and the memory ops.
func EvalOp(op OpCode, aux uint32, mask uint64, a, b, c uint64) (uint64, bool) {
	if op >= numOpCodes || !opTraitsTable[op].Pure {
		return 0, false
	}
	st := [4]uint64{a, b, c}
	probe := [1]LInstr{{Op: op, Dst: 3, A: 0, B: 1, C: 2, Aux: aux, Mask: mask}}
	evalLinked(probe[:], st[:], nil, nil, nil, nil)
	return st[3], true
}

// SignExtend64 exposes the executor's sign extension: the low w bits of x
// extended to 64 bits (w == 0 or w >= 64 returns x unchanged, matching
// OpSext with Aux 0 meaning "as-is").
func SignExtend64(x uint64, w uint32) uint64 { return signExtend64(x, w) }

// Exported wide-node kind and operand-space identifiers, mirroring the
// package-private enums so external analyses can branch on them.
const (
	WideKindPrim   = uint8(wkPrim)
	WideKindCopy   = uint8(wkCopy)
	WideKindConst  = uint8(wkConst)
	WideKindMemRd  = uint8(wkMemRd)
	WideKindMemWr  = uint8(wkMemWr)
	WideSpaceLocal = uint8(wsWideLocal)
	WideSpaceGlob  = uint8(wsWideGlobal)
	WideSpaceImm   = uint8(wsWideImm)
	WideSpaceShad  = uint8(wsWideShadow)
	WideSpaceNarr  = uint8(wsNarrow)
)

// KindID returns the wide node's kind as one of the WideKind* constants.
func (wn *WideNode) KindID() uint8 { return uint8(wn.Kind) }

// SpaceID returns the operand's space as one of the WideSpace* constants.
func (a WideOperand) SpaceID() uint8 { return uint8(a.Space) }
