// Package sim compiles a split circuit DAG into straight-line instruction
// streams and executes them with serial or parallel full-cycle engines.
//
// It is the ESSENT-equivalent substrate of the RepCut reproduction plus
// RepCut's parallel runtime (§5 of the paper): per-thread evaluation into
// private shadow state and a global update that publishes register writes
// with one contiguous copy per thread, over a false-sharing-free global
// layout (Figure 5). The paper separates the two phases with two barriers
// per simulated cycle; the engine here gives each thread a private state
// array, exchanges only the register words other threads read through
// parity buffers, and crosses one barrier per cycle (DESIGN.md §4 "Runtime
// protocol").
//
// Every opcode is narrow: it reads and writes single 64-bit words of flat
// []uint64 arrays. The compiler lowers a signal wider than 64 bits into
// ⌈w/64⌉ consecutive words, least significant first, with the top word
// masked to its width (lower.go), so wide arithmetic is ordinary narrow
// code that every executor runs unchanged.
package sim

import (
	"fmt"
	"strings"

	"repro/internal/optable"
)

// OpCode enumerates the narrow opcodes. Values are canonical: masked to
// their width and stored zero-extended in a uint64; signed operators read
// operands the compiler sign-extended with OpSext. internal/optable defines
// each opcode once: its name, traits and semantics. The constants and both
// executors (linkexec.go, batchexec.go) are generated from that table.
type OpCode uint8

//go:generate go run repro/internal/optable/gen

// opNames are the lower-cased table names: "add", "sdiv", "mulhi".
var opNames = func() (names [numOpCodes]string) {
	for i := range names {
		names[i] = strings.ToLower(optable.Table[i].Name)
	}
	return names
}()

func (o OpCode) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("?op(%d)", uint8(o))
}

// Operand reference encoding of the compiler's instruction buffer: 2 tag
// bits in the top of a uint32.
const (
	refTagShift = 30
	refTagMask  = uint32(3) << refTagShift
	refIdxMask  = ^refTagMask

	// refLocal indexes the thread's temp array.
	refLocal = uint32(SpaceLocal) << refTagShift
	// refGlobal indexes the shared global word array.
	refGlobal = uint32(SpaceGlobal) << refTagShift
	// refImm indexes the program's immediate table.
	refImm = uint32(SpaceImm) << refTagShift
	// refShadow indexes the thread's shadow (sink) array. Valid only as a
	// destination or copy source.
	refShadow = uint32(SpaceShadow) << refTagShift
)

// makeRef builds an operand reference.
func makeRef(tag, idx uint32) uint32 {
	if idx&refTagMask != 0 {
		panic(fmt.Sprintf("sim: ref index %d overflows", idx))
	}
	return tag | idx
}

// refTag extracts the tag bits of a reference.
func refTag(r uint32) uint32 { return r & refTagMask }

// refIdx extracts the index bits of a reference.
func refIdx(r uint32) uint32 { return r & refIdxMask }

// instr is one instruction of the compiler's buffer: emission, the sweep and
// the immediate-pool merge write it with tagged operands, link resolves it
// into the LInstr stream a Program stores, and it is dropped.
type instr struct {
	Op   OpCode
	Dst  uint32 // refLocal or refShadow destination
	A    uint32
	B    uint32
	C    uint32
	Aux  uint32 // shift amount / cat low-width / mem index / sext width
	Mask uint64 // result mask; OpAndr's comparand (Traits.MaskIsOperand)
}

// definesDst reports whether an instruction of opcode op defines its Dst.
// OpNop and OpMemWr leave Dst meaningless: read as a definition, their zero
// Dst would claim local temp 0.
func definesDst(op OpCode) bool { return op != OpNop && op != OpMemWr }

// InstrBytes approximates the x86 code a compiled simulator would emit for
// one IR node (the paper reports ~27 B/node for MegaBOOM-4C); the host
// model uses it for instruction-footprint estimates.
const InstrBytes = 28
