// Package optable is the one definition of the simulator's opcode
// semantics. Row i of Table is opcode i: its name, its Traits, and the Go
// statement that executes it, written as a template over the instruction's
// fields. Every executor is built from that template:
//
//   - internal/sim's scalar executor evalLinked and its ×16 lane executor
//     evalThreadBatch are generated from the table (`make generate` runs
//     ./gen, which rewrites sim/linkexec.go and sim/batchexec.go);
//   - internal/codegen's native emitter fills the same templates once per
//     instruction with state loads and inlined literals.
//
// Adding or fixing an opcode is one row here plus `make generate`. The two
// memory ops are the exception: their rows carry no template, because each
// target reaches memories through a different interface, so each target
// writes them by hand.
//
// A template is Go statement text with these placeholders:
//
//	$D          the destination word
//	$A $B $C    the operand words (the first Traits.Reads of them)
//	$AUX        the instruction's Aux field (shift, cat width, sext width)
//	$MASK       the instruction's Mask as a value
//	$M(x)       x truncated to the result mask
//	$CMP(c)     the condition c of a compare
//
// A continuation line is indented one tab deeper than the first line; each
// target adds its own base indentation. The texts are the native emitter's
// output byte for byte (codegen's golden test pins it), which is why some
// carry parentheses Go does not need.
package optable

import (
	"fmt"
	"strings"
)

// Traits classifies one opcode for the compiler, the optimizer and
// symbolic analyses.
type Traits struct {
	// Reads is how many operand refs (A, B, C) the op reads.
	Reads int
	// Commutative: dst is invariant under swapping operands A and B.
	Commutative bool
	// MasksResult: the executor truncates the stored result with the mask.
	// False for compares, reductions and OpSext, whose results are stored
	// untouched.
	MasksResult bool
	// MaskIsOperand: the mask is a comparand, not a truncation (OpAndr
	// compares its operand against the mask itself).
	MaskIsOperand bool
	// MaskFusable: narrowing the result mask equals masking afterwards, so
	// the optimizer may fold a truncating copy into this producer.
	MaskFusable bool
	// Pure: a data-only computation that constant folding may evaluate: no
	// memory access and no side effect.
	Pure bool
}

// Op is one row of the table.
type Op struct {
	// Name is the opcode's Go constant without its "Op" prefix; lower-cased
	// it is the printed mnemonic.
	Name   string
	Traits Traits
	// Go is the statement every target runs ("" for the no-op and the
	// memory ops).
	Go string
	// Lane replaces Go in the ×16 lane executor, where that executor is
	// branchless on purpose.
	Lane string
	// PerLane makes the lane executor run Go in a loop over the live lanes
	// instead of unrolled over all sixteen: signed division must not trap
	// on a padding lane's bits, and its branches differ from lane to lane.
	PerLane bool
	// Native replaces Go in the native emitter, which specialises the
	// statement on the instruction's constant Aux.
	Native func(aux uint32) string
}

// Trait sets shared by several rows.
var (
	unary    = Traits{Reads: 1, MasksResult: true, MaskFusable: true, Pure: true}
	binary   = Traits{Reads: 2, MasksResult: true, MaskFusable: true, Pure: true}
	commut   = Traits{Reads: 2, MasksResult: true, MaskFusable: true, Pure: true, Commutative: true}
	division = Traits{Reads: 2, MasksResult: true, Pure: true}
	compare  = Traits{Reads: 2, Pure: true}
	equality = Traits{Reads: 2, Pure: true, Commutative: true}
	reduce   = Traits{Reads: 1, Pure: true}
)

// Table is indexed by opcode. The order is the opcode numbering, which
// program fingerprints and snapshots depend on: append, never reorder.
var Table = [...]Op{
	{Name: "Nop"},
	{Name: "Copy", Traits: unary, Go: "$D = $M($A)"},
	{Name: "Add", Traits: commut, Go: "$D = $M(($A + $B))"},
	{Name: "Sub", Traits: binary, Go: "$D = $M(($A - $B))"},
	{Name: "Mul", Traits: commut, Go: "$D = $M(($A * $B))"},
	// x/0 = 0; the lane form's divLane gets there without a branch.
	{Name: "Div", Traits: division,
		Go:   "if y := $B; y == 0 {\n\t$D = 0\n} else {\n\t$D = $M(($A / y))\n}",
		Lane: "$D = divLane($A, $B, $MASK)"},
	// x%0 = x.
	{Name: "Rem", Traits: division,
		Go:   "if y := $B; y == 0 {\n\t$D = $M($A)\n} else {\n\t$D = $M(($A % y))\n}",
		Lane: "$D = remLane($A, $B, $MASK)"},
	// Signed division on sign-extended operands; the -1 arm avoids the
	// MinInt64 / -1 trap.
	{Name: "SDiv", Traits: division, PerLane: true,
		Go: "switch x, y := int64($A), int64($B); {\ncase y == 0:\n\t$D = 0\ncase y == -1:\n\t$D = $M(uint64(-x))\ndefault:\n\t$D = $M(uint64(x/y))\n}"},
	{Name: "SRem", Traits: division, PerLane: true,
		Go: "switch x, y := int64($A), int64($B); {\ncase y == 0:\n\t$D = $M(uint64(x))\ncase y == -1:\n\t$D = 0\ndefault:\n\t$D = $M(uint64(x%y))\n}"},
	{Name: "Lt", Traits: compare, Go: "$D = b2u($CMP($A < $B))"},
	{Name: "Leq", Traits: compare, Go: "$D = b2u($CMP($A <= $B))"},
	{Name: "Gt", Traits: compare, Go: "$D = b2u($CMP($A > $B))"},
	{Name: "Geq", Traits: compare, Go: "$D = b2u($CMP($A >= $B))"},
	// Signed compares read operands the compiler sign-extended with OpSext.
	{Name: "SLt", Traits: compare, Go: "$D = b2u($CMP(int64($A) < int64($B)))"},
	{Name: "SLeq", Traits: compare, Go: "$D = b2u($CMP(int64($A) <= int64($B)))"},
	{Name: "SGt", Traits: compare, Go: "$D = b2u($CMP(int64($A) > int64($B)))"},
	{Name: "SGeq", Traits: compare, Go: "$D = b2u($CMP(int64($A) >= int64($B)))"},
	{Name: "Eq", Traits: equality, Go: "$D = b2u($CMP($A == $B))"},
	{Name: "Neq", Traits: equality, Go: "$D = b2u($CMP($A != $B))"},
	{Name: "And", Traits: commut, Go: "$D = $M(($A & $B))"},
	{Name: "Or", Traits: commut, Go: "$D = $M(($A | $B))"},
	{Name: "Xor", Traits: commut, Go: "$D = $M(($A ^ $B))"},
	{Name: "Not", Traits: unary, Go: "$D = $M(^$A)"},
	{Name: "Neg", Traits: unary, Go: "$D = $M((-$A))"},
	// The mask is the operand's all-ones value, not a truncation.
	{Name: "Andr", Traits: Traits{Reads: 1, Pure: true, MaskIsOperand: true}, Go: "$D = b2u($A == $MASK)"},
	{Name: "Orr", Traits: reduce, Go: "$D = b2u($A != 0)"},
	{Name: "Xorr", Traits: reduce, Go: "$D = uint64(bits.OnesCount64($A) & 1)"},
	// Aux is the width of B.
	{Name: "Cat", Traits: binary, Go: "$D = $M(($A<<$AUX | $B))"},
	{Name: "Shl", Traits: unary, Go: "$D = $M(($A << $AUX))"},
	// Logical; arithmetic shifts read a sign-extended operand.
	{Name: "Shr", Traits: unary, Go: "$D = $M(($A >> $AUX))"},
	{Name: "Sar", Traits: unary, Go: "$D = $M(uint64(int64($A) >> $AUX))"},
	{Name: "Dshl", Traits: binary, Go: "if n := $B; n >= 64 {\n\t$D = 0\n} else {\n\t$D = $M(($A << n))\n}"},
	{Name: "Dshr", Traits: binary, Go: "if n := $B; n >= 64 {\n\t$D = 0\n} else {\n\t$D = $M(($A >> n))\n}"},
	// The arithmetic shift saturates at the sign bit.
	{Name: "Dsar", Traits: binary, Go: "{\n\tn := $B\n\tif n > 63 {\n\t\tn = 63\n\t}\n\t$D = $M(uint64(int64($A) >> n))\n}"},
	// B and C are pre-extended to the result width.
	{Name: "Mux", Traits: Traits{Reads: 3, MasksResult: true, MaskFusable: true, Pure: true},
		Go:   "if $A != 0 {\n\t$D = $M($B)\n} else {\n\t$D = $M($C)\n}",
		Lane: "$D = $M(sel(-b2u($A != 0), $B, $C))"},
	// The full 64-bit sign extension of A's low Aux bits (Aux 0 or >= 64:
	// A unchanged), never masked.
	{Name: "Sext", Traits: reduce, Go: "$D = signExtend64($A, $AUX)", Native: nativeSext},
	// Read memory Aux at address A (0 out of range), masked.
	{Name: "MemRd", Traits: Traits{Reads: 1, MasksResult: true, MaskFusable: true}},
	// Buffer the write (memory Aux, address A, data B masked) when C is
	// nonzero; the commit phase applies it.
	{Name: "MemWr", Traits: Traits{Reads: 3}},
	// The high word of the 128-bit product.
	{Name: "MulHi", Traits: Traits{Reads: 2, MasksResult: true, Pure: true, Commutative: true},
		Go: "{\n\thi, _ := bits.Mul64($A, $B)\n\t$D = $M(hi)\n}"},
}

// nativeSext is OpSext with its width folded into constant shifts.
func nativeSext(w uint32) string {
	if w == 0 || w >= 64 {
		return "$D = $A"
	}
	return fmt.Sprintf("$D = uint64(int64($A<<%d) >> %d)", 64-w, 64-w)
}

// Target fills a template's placeholders for one code generator.
type Target struct {
	Dst, Aux, Mask string
	// Operand prints operand k: 0, 1, 2 for $A, $B, $C.
	Operand func(k int) string
	// M and Cmp print the $M and $CMP wrappers around their expanded
	// argument.
	M, Cmp func(string) string
}

// Expand fills tmpl's placeholders. They expand in text order, a wrapper's
// argument before the wrapper, so a target whose callbacks keep records
// (the native emitter counts inlined literals and mask sites) sees them in
// a fixed order.
func Expand(tmpl string, t *Target) string {
	var b strings.Builder
	for i := 0; i < len(tmpl); {
		if tmpl[i] != '$' {
			b.WriteByte(tmpl[i])
			i++
			continue
		}
		j := i + 1
		for j < len(tmpl) && 'A' <= tmpl[j] && tmpl[j] <= 'Z' {
			j++
		}
		switch name := tmpl[i+1 : j]; name {
		case "M", "CMP":
			end := closing(tmpl, j)
			arg := Expand(tmpl[j+1:end], t)
			if name == "M" {
				b.WriteString(t.M(arg))
			} else {
				b.WriteString(t.Cmp(arg))
			}
			j = end + 1
		case "D":
			b.WriteString(t.Dst)
		case "A", "B", "C":
			b.WriteString(t.Operand(int(name[0] - 'A')))
		case "AUX":
			b.WriteString(t.Aux)
		case "MASK":
			b.WriteString(t.Mask)
		default:
			panic(fmt.Sprintf("optable: unknown placeholder $%s in %q", name, tmpl))
		}
		i = j
	}
	return b.String()
}

// closing returns the index of the parenthesis that closes the one at open.
func closing(s string, open int) int {
	if open >= len(s) || s[open] != '(' {
		panic(fmt.Sprintf("optable: wrapper without argument in %q", s))
	}
	depth := 0
	for i := open; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			if depth--; depth == 0 {
				return i
			}
		}
	}
	panic(fmt.Sprintf("optable: unbalanced parentheses in %q", s))
}

// NeedsLoad reports whether operand k of tmpl must stay a state load in
// generated source: a constant literal there would form a constant Go
// subexpression that can overflow at compile time, under an int64
// conversion or shifted by the constant $AUX.
func NeedsLoad(tmpl string, k int) bool {
	x := "$" + string(rune('A'+k))
	return strings.Contains(tmpl, "int64("+x+")") ||
		strings.Contains(tmpl, x+"<<$AUX") || strings.Contains(tmpl, x+" << $AUX")
}
