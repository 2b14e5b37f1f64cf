// Command gen writes internal/sim's two executors from optable.Table into
// the current directory: linkexec.go (the OpCode constants and the scalar
// executor evalLinked) and batchexec.go (the ×16 lane executor
// evalThreadBatch). `make generate` runs it through `go generate ./...`;
// CI fails when the checked-in files differ from its output.
//
// The lane executor writes each arm out once per lane rather than as a
// `for l := range d` loop: constant indices need no bounds checks or loop
// bookkeeping, and the sixteen statements have no cross-lane dependencies,
// so the out-of-order core overlaps them. The same arms rolled into loops
// measured 2.2x slower (DESIGN.md §9), which is why this is a generator.
package main

import (
	"fmt"
	"go/format"
	"log"
	"os"
	"regexp"
	"strings"

	"repro/internal/optable"
)

// lanes is sim.BatchWidth, the column width the lane executor is unrolled
// for (a different width fails to compile against col16).
const lanes = 16

func main() {
	write("linkexec.go", linkedFile())
	write("batchexec.go", batchFile())
}

// write gofmts src behind the generated-code header and writes it to name.
func write(name, src string) {
	src = "// Code generated by repro/internal/optable/gen from optable.Table. DO NOT EDIT.\n\n" + src
	out, err := format.Source([]byte(src))
	if err != nil {
		log.Fatalf("gen: %s: %v", name, err)
	}
	if err := os.WriteFile(name, out, 0o644); err != nil {
		log.Fatalf("gen: %v", err)
	}
}

// arms prints one switch case per row that carries a template.
func arms(arm func(op *optable.Op) string) string {
	var b strings.Builder
	for i := range optable.Table {
		if op := &optable.Table[i]; op.Go != "" {
			fmt.Fprintf(&b, "case Op%s:\n%s\n", op.Name, arm(op))
		}
	}
	return b.String()
}

func linkedFile() string {
	var consts strings.Builder
	for i, op := range optable.Table {
		if i == 0 {
			fmt.Fprintf(&consts, "Op%s OpCode = iota\n", op.Name)
		} else {
			fmt.Fprintf(&consts, "Op%s\n", op.Name)
		}
	}
	t := &optable.Target{
		Dst: "st[in.Dst]", Aux: "in.Aux", Mask: "in.Mask",
		Operand: func(k int) string { return fmt.Sprintf("st[in.%c]", 'A'+k) },
		M:       func(x string) string { return x + " & in.Mask" },
		Cmp:     func(c string) string { return c },
	}
	body := arms(func(op *optable.Op) string { return optable.Expand(op.Go, t) })
	return strings.NewReplacer("@CONSTS@\n", consts.String(), "@ARMS@\n", body).Replace(linkedFrame)
}

// placeholder finds the placeholders a template mentions.
var placeholder = regexp.MustCompile(`\$(A|B|C|AUX|MASK|M)\b`)

// laneArm declares the columns and fields an arm reads, then writes its
// lane form (or Go) once per lane, or once in a loop over the live lanes.
func laneArm(op *optable.Op) string {
	tmpl := op.Go
	if op.Lane != "" {
		tmpl = op.Lane
	}
	used := map[string]bool{}
	for _, m := range placeholder.FindAllStringSubmatch(tmpl, -1) {
		used[m[1]] = true
	}
	column := "p"
	if op.PerLane {
		column = "col"
	}
	names, cols := []string{"d"}, []string{column + "(in.Dst)"}
	for _, r := range "ABC" {
		if used[string(r)] {
			names = append(names, strings.ToLower(string(r)))
			cols = append(cols, fmt.Sprintf("%s(in.%c)", column, r))
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s := %s\n", strings.Join(names, ", "), strings.Join(cols, ", "))
	if used["M"] || used["MASK"] {
		b.WriteString("m := in.Mask\n")
	}
	if used["AUX"] {
		b.WriteString("aux := in.Aux\n")
	}
	lane := func(l string) *optable.Target {
		return &optable.Target{
			Dst: "d[" + l + "]", Aux: "aux", Mask: "m",
			Operand: func(k int) string { return fmt.Sprintf("%c[%s]", 'a'+k, l) },
			M:       func(x string) string { return x + " & m" },
			Cmp:     func(c string) string { return c },
		}
	}
	if op.PerLane {
		fmt.Fprintf(&b, "for l := range d {\n%s\n}", optable.Expand(tmpl, lane("l")))
		return b.String()
	}
	for l := 0; l < lanes; l++ {
		b.WriteString(optable.Expand(tmpl, lane(fmt.Sprint(l))) + "\n")
	}
	return b.String()
}

func batchFile() string {
	return strings.Replace(batchFrame, "@ARMS@\n", arms(laneArm), 1)
}

// linkedFrame is linkexec.go around the generated constants and arms; its
// memory arms are the scalar executor's hand-written part.
const linkedFrame = `package sim

import (
	"fmt"
	"math/bits"
)

// The opcodes, numbered by their row in optable.Table, which defines each
// one's semantics and traits.
const (
@CONSTS@
	numOpCodes
)

// evalLinked executes one linked instruction stream: every operand is a
// single indexed load or store into the engine's unified state slice. It is
// the one scalar executor — engines, constant folding and EvalOp all run it
// (pure ops touch only st, so a probe may pass nil for gs and tc) — and
// sim.Reference, which never sees an OpCode, is the independent oracle it
// is cross-checked against. gs supplies the memories and tc the
// memory-write buffer.
func evalLinked(code []LInstr, st []uint64, gs *globalState, tc *threadCtx) {
	for i := range code {
		in := &code[i]
		switch in.Op {
		case OpNop:
@ARMS@
		case OpMemRd:
			mem := gs.mems[in.Aux]
			addr := st[in.A]
			if addr < uint64(len(mem)) {
				st[in.Dst] = mem[addr] & in.Mask
			} else {
				st[in.Dst] = 0
			}
		case OpMemWr:
			if st[in.C] != 0 {
				tc.memBuf = append(tc.memBuf, memWrite{
					mem: in.Aux, addr: st[in.A], data: st[in.B] & in.Mask,
				})
			}
		default:
			panic(fmt.Sprintf("sim: bad linked opcode %v", in.Op))
		}
	}
}
`

// batchFrame is batchexec.go around the generated arms; its memory arms
// are the lane executor's hand-written part.
const batchFrame = `package sim

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
@ARMS@
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
`
