// Package sim compiles a split circuit DAG into straight-line instruction
// streams and executes them with serial or parallel full-cycle engines.
//
// It is the ESSENT-equivalent substrate of the RepCut reproduction plus
// RepCut's parallel runtime (§5 of the paper): per-thread evaluation into
// private shadow state and a global update that publishes register writes
// with one contiguous copy per thread, over a false-sharing-free global
// layout (Figure 5). The paper separates the two phases with two barriers
// per simulated cycle; the engine here keeps two state views and crosses
// one barrier per cycle (DESIGN.md §4 "Runtime protocol").
//
// Every opcode is narrow: it reads and writes single 64-bit words of flat
// []uint64 arrays. The compiler lowers a signal wider than 64 bits into
// ⌈w/64⌉ consecutive words, least significant first, with the top word
// masked to its width (lower.go), so wide arithmetic is ordinary narrow
// code that every executor runs unchanged.
package sim

import "fmt"

// OpCode enumerates interpreter operations. Narrow values are canonical:
// masked to their width, stored zero-extended in a uint64. Signed operators
// consume operands that the compiler has sign-extended to 64 bits with
// OpSext (the extended form is an internal value, never stored as a vertex
// result).
type OpCode uint8

// Interpreter opcodes.
const (
	OpNop  OpCode = iota
	OpCopy        // dst = a
	OpAdd         // dst = (a + b) & mask
	OpSub         // dst = (a - b) & mask
	OpMul         // dst = (a * b) & mask
	OpDiv         // dst = b==0 ? 0 : a/b (unsigned)
	OpRem         // dst = b==0 ? a : a%b (unsigned)
	OpSDiv        // signed div on sign-extended operands, masked
	OpSRem        // signed rem on sign-extended operands, masked
	OpLt          // unsigned comparisons -> 0/1
	OpLeq
	OpGt
	OpGeq
	OpSLt // signed comparisons on sign-extended operands
	OpSLeq
	OpSGt
	OpSGeq
	OpEq
	OpNeq
	OpAnd  // dst = (a & b) & mask
	OpOr   // dst = (a | b) & mask
	OpXor  // dst = (a ^ b) & mask
	OpNot  // dst = ^a & mask
	OpNeg  // dst = (-a) & mask
	OpAndr // dst = (a == mask(aw)) ? 1 : 0 ; operand mask in Imm
	OpOrr  // dst = a != 0
	OpXorr // dst = parity(a)
	OpCat  // dst = (a << Aux | b) & mask ; Aux = width of b
	OpShl  // dst = (a << Aux) & mask
	OpShr  // dst = (a >> Aux) & mask (logical; use after Sext for arithmetic)
	OpSar  // dst = (int64(a) >> Aux) & mask (a must be sign-extended)
	OpDshl // dst = (a << b) & mask, or 0 if b >= 64
	OpDshr // dst = (a >> b) & mask (logical), or 0 if b >= 64
	OpDsar // dst = (int64(a) >> min(b,63)) & mask (a must be sign-extended)
	OpMux  // dst = a!=0 ? b : c (b, c pre-extended to result width)
	OpSext // dst = signextend64(a, Aux)  -- full 64-bit, NOT masked
	OpMemRd
	// OpMemWr buffers (mem=Aux, addr=a, data=b) when en=c is nonzero.
	OpMemWr
	OpMulHi // dst = high 64 bits of the 128-bit product a*b, masked
	numOpCodes
)

var opNames = [numOpCodes]string{
	"nop", "copy", "add", "sub", "mul", "div", "rem", "sdiv", "srem",
	"lt", "leq", "gt", "geq", "slt", "sleq", "sgt", "sgeq", "eq", "neq",
	"and", "or", "xor", "not", "neg", "andr", "orr", "xorr",
	"cat", "shl", "shr", "sar", "dshl", "dshr", "dsar", "mux", "sext",
	"memrd", "memwr", "mulhi",
}

func (o OpCode) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("?op(%d)", uint8(o))
}

// Operand reference encoding: 2 tag bits in the top of a uint32.
const (
	refTagShift = 30
	refTagMask  = uint32(3) << refTagShift
	refIdxMask  = ^refTagMask

	// RefLocal indexes the thread's temp array.
	RefLocal = uint32(0) << refTagShift
	// RefGlobal indexes the shared global word array.
	RefGlobal = uint32(1) << refTagShift
	// RefImm indexes the program's immediate table.
	RefImm = uint32(2) << refTagShift
	// RefShadow indexes the thread's shadow (sink) array. Valid only as a
	// destination or copy source.
	RefShadow = uint32(3) << refTagShift
)

// MakeRef builds an operand reference.
func MakeRef(tag, idx uint32) uint32 {
	if idx&refTagMask != 0 {
		panic(fmt.Sprintf("sim: ref index %d overflows", idx))
	}
	return tag | idx
}

// RefTag extracts the tag bits of a reference.
func RefTag(r uint32) uint32 { return r & refTagMask }

// RefIdx extracts the index bits of a reference.
func RefIdx(r uint32) uint32 { return r & refIdxMask }

// Instr is one interpreter instruction. Estimated encoded size is used as
// the per-instruction code footprint by the host model.
type Instr struct {
	Op   OpCode
	Dst  uint32 // RefLocal or RefShadow destination
	A    uint32
	B    uint32
	C    uint32
	Aux  uint32 // shift amount / cat low-width / mem index / sext width
	Mask uint64 // result mask (also operand mask for Andr via Imm trick: stored here)
}

// InstrBytes approximates the x86 code a compiled simulator would emit for
// one IR node (the paper reports ~27 B/node for MegaBOOM-4C); the host
// model uses it for instruction-footprint estimates.
const InstrBytes = 28
