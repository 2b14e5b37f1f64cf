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
	Mask uint64 // result mask; OpAndr's comparand (Traits.MaskIsOperand)
}

// InstrBytes approximates the x86 code a compiled simulator would emit for
// one IR node (the paper reports ~27 B/node for MegaBOOM-4C); the host
// model uses it for instruction-footprint estimates.
const InstrBytes = 28
