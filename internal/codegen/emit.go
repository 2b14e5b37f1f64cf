package codegen

import (
	"fmt"
	"strings"

	"repro/internal/optable"
	"repro/internal/sim"
)

// The emitter prints each linked thread's instruction stream as
// straight-line Go statements over the unified state slice. Each statement
// is its opcode's template from internal/optable, the table evalLinked and
// the lane executor are generated from, so the kernel and the interpreters
// share one definition of every opcode; only the two memory ops are
// written here, against the kernel's mems/memwr arguments. The cross-engine
// tests and the difftest column enforce bit-identity. Where the text
// differs from evalLinked's, it is semantics-preserving:
//
//   - immediate operands are inlined as uint64 literals (the linked state
//     holds a read-only copy of the immediate table, so st[immOff+i] ==
//     Imms[i] always), except where optable.NeedsLoad says a literal could
//     turn a subexpression into an overflowing Go constant expression, and
//     except when every read of an instruction is an immediate (an
//     all-constant Go expression);
//   - Aux and Mask print as literals, a result mask of ^0 elides the AND,
//     and OpSext folds its width into constant shifts (its Native form);
//   - each chunk function opens with a bounds-check hint (_ = st[max]) so
//     the compiler drops the per-access checks on the constant indices.
//
// Streams are split into chunk functions of at most chunkInstrs
// instructions: Go's compiler handles many medium functions far better
// than one enormous one.

// chunkInstrs bounds the linked instructions per generated function.
const chunkInstrs = 1024

// Emission is one generated kernel source and what went into it.
type Emission struct {
	Source  []byte
	Threads int
	Chunks  int
	Inlined int // immediate operands inlined as literals
	// BugSite names the instruction a planted Bug landed on ("" when none
	// was requested or the program offered no applicable site).
	BugSite string
}

// Emit generates plugin source for every thread of the linked program.
func Emit(lp *sim.LinkedProgram, o EmitOptions) (*Emission, error) {
	p := lp.Program()
	e := &emitter{lp: lp, p: p, bug: o.Bug}
	if o.Bug != BugNone {
		// Scan pass: collect every maskable site, then plant the bug where
		// it can actually be observed (see bugScore).
		s := &emitter{lp: lp, p: p, scan: true}
		var discard strings.Builder
		for t := range lp.Threads {
			if err := s.thread(&discard, t); err != nil {
				return nil, err
			}
		}
		cands := s.sites
		if o.Bug == BugCmpInvert {
			cands = s.csites
		}
		if len(cands) == 0 {
			return nil, fmt.Errorf("codegen: program %s has no site for planted bug %d", p.Design, o.Bug)
		}
		pick := cands[0]
		for _, site := range cands {
			if site.score > pick.score {
				pick = site
			}
		}
		e.bugT, e.bugC = pick.t, pick.pc
	}
	var body strings.Builder
	for t := range lp.Threads {
		if err := e.thread(&body, t); err != nil {
			return nil, err
		}
	}
	if o.Bug != BugNone && e.bugSite == "" {
		return nil, fmt.Errorf("codegen: program %s has no site for planted bug %d", p.Design, o.Bug)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "// Code generated by repro/internal/codegen %s. DO NOT EDIT.\n", EmitterVersion)
	fmt.Fprintf(&b, "//\n// Native kernel for program %q, fingerprint %#016x, %d thread(s).\n",
		p.Design, p.Fingerprint(), p.NumThreads)
	b.WriteString("package main\n\n")
	if e.needBits {
		b.WriteString("import \"math/bits\"\n\n")
	}
	fmt.Fprintf(&b, "var Fingerprint uint64 = %#x\n\n", p.Fingerprint())
	fmt.Fprintf(&b, "var Emitter = %q\n\n", EmitterVersion)
	b.WriteString("var Threads = []func(st []uint64, mems [][]uint64, memwr func(uint32, uint64, uint64)){\n")
	for t := range lp.Threads {
		fmt.Fprintf(&b, "\teval%d,\n", t)
	}
	b.WriteString("}\n\n")
	if e.needB2u {
		b.WriteString("func b2u(b bool) uint64 {\n\tif b {\n\t\treturn 1\n\t}\n\treturn 0\n}\n\n")
	}
	b.WriteString(body.String())
	b.WriteString("func main() {}\n")

	return &Emission{
		Source:  []byte(b.String()),
		Threads: len(lp.Threads),
		Chunks:  e.chunks,
		Inlined: e.inlined,
		BugSite: e.bugSite,
	}, nil
}

// emitter carries one Emit run's state.
type emitter struct {
	lp  *sim.LinkedProgram
	p   *sim.Program
	bug Bug

	block [3]bool // operand slots not eligible for inlining

	// Bug placement. A scan pass collects candidate sites first; the real
	// pass plants the defect at the chosen one (bugT/bugC).
	scan       bool
	sites      []maskSite // maskable sites (BugDropMask)
	csites     []maskSite // comparison sites (BugCmpInvert)
	bugT, bugC int

	chunks   int
	inlined  int
	bugSite  string
	needBits bool
	needB2u  bool
}

const threadSig = "(st []uint64, mems [][]uint64, memwr func(uint32, uint64, uint64))"

// thread emits thread t as chunk functions plus a driver calling them in
// order (or a single function when the stream fits one chunk).
func (e *emitter) thread(b *strings.Builder, t int) error {
	code := e.lp.Threads[t].Code
	nchunks := (len(code) + chunkInstrs - 1) / chunkInstrs
	if nchunks <= 1 {
		fmt.Fprintf(b, "func eval%d%s {\n", t, threadSig)
		if err := e.chunk(b, t, code, 0); err != nil {
			return err
		}
		b.WriteString("}\n\n")
		e.chunks++
		return nil
	}
	fmt.Fprintf(b, "func eval%d%s {\n", t, threadSig)
	for c := 0; c < nchunks; c++ {
		fmt.Fprintf(b, "\teval%d_%d(st, mems, memwr)\n", t, c)
	}
	b.WriteString("}\n\n")
	for c := 0; c < nchunks; c++ {
		lo := c * chunkInstrs
		hi := min(lo+chunkInstrs, len(code))
		fmt.Fprintf(b, "func eval%d_%d%s {\n", t, c, threadSig)
		if err := e.chunk(b, t, code[lo:hi], lo); err != nil {
			return err
		}
		b.WriteString("}\n\n")
		e.chunks++
	}
	return nil
}

// chunk emits one run of instructions; pc0 is the linked PC of code[0].
func (e *emitter) chunk(b *strings.Builder, t int, code []sim.LInstr, pc0 int) error {
	// Bounds-check hint: every constant state index below is provably in
	// range after this, and it doubles as an ABI guard — a short slice
	// panics here, not mid-stream. It loads the highest word the chunk
	// itself touches (unused operand fields are 0), never another thread's
	// frame, so it adds no access that could race.
	var top uint32
	for i := range code {
		top = max(top, code[i].Dst, code[i].A, code[i].B, code[i].C)
	}
	if len(code) > 0 {
		fmt.Fprintf(b, "\t_ = st[%d]\n", top)
	}
	for i := range code {
		if err := e.instr(b, t, pc0+i, &code[i]); err != nil {
			return err
		}
	}
	return nil
}

// memForms are the memory ops' statements, the one per-target part of
// the semantics: the kernel reaches memories through its mems and memwr
// arguments.
var memForms = map[sim.OpCode]string{
	sim.OpMemRd: "if q, x := mems[$AUX], $A; x < uint64(len(q)) {\n\t$D = $M(q[x])\n} else {\n\t$D = 0\n}",
	sim.OpMemWr: "if $C != 0 {\n\tmemwr($AUX, $A, $M($B))\n}",
}

// form returns the statement template of a linked instruction.
func form(in *sim.LInstr) (string, bool) {
	if f, ok := memForms[in.Op]; ok {
		return f, true
	}
	if int(in.Op) >= len(optable.Table) {
		return "", false
	}
	op := &optable.Table[in.Op]
	if op.Native != nil {
		return op.Native(in.Aux), true
	}
	return op.Go, true
}

// instr emits one linked instruction.
func (e *emitter) instr(b *strings.Builder, t, pc int, in *sim.LInstr) error {
	tmpl, ok := form(in)
	if !ok {
		return fmt.Errorf("codegen: unhandled opcode %v (thread %d pc %d)", in.Op, t, pc)
	}
	e.block = blockedSlots(e.lp, e.p, in, tmpl)
	ops := [3]uint32{in.A, in.B, in.C}
	stmt := optable.Expand(tmpl, &optable.Target{
		Dst:     fmt.Sprintf("st[%d]", in.Dst),
		Aux:     fmt.Sprint(in.Aux),
		Mask:    fmt.Sprintf("%#x", in.Mask),
		Operand: func(k int) string { return e.op(ops[k], k) },
		M:       func(x string) string { return e.mask(t, pc, in, x) },
		Cmp:     func(c string) string { return e.cond(t, pc, c) },
	})
	if stmt != "" {
		for _, line := range strings.Split(stmt, "\n") {
			b.WriteString("\t" + line + "\n")
		}
	}
	e.needBits = e.needBits || strings.Contains(tmpl, "bits.")
	e.needB2u = e.needB2u || strings.Contains(tmpl, "b2u(")
	return nil
}

// op prints operand slot k (state index idx): a uint64 literal when the
// operand addresses the immediate region and the position allows inlining,
// else the state load.
func (e *emitter) op(idx uint32, k int) string {
	if !e.block[k] {
		if i := int(idx) - e.lp.ImmOff; i >= 0 && i < len(e.p.Imms) {
			e.inlined++
			return fmt.Sprintf("uint64(%#x)", e.p.Imms[i])
		}
	}
	return fmt.Sprintf("st[%d]", idx)
}

// maskSite is one maskable emission site found by the scan pass.
type maskSite struct {
	t, pc int
	score int
}

// bugScore ranks a maskable site by how observable a dropped mask is.
// Slot values are canonical (every producer masks), so consumer-side
// masks — memwr data, copies of already-narrow values — are usually
// redundant and dropping them changes nothing. An op whose result
// overflows its width even on canonical inputs is where the bug shows:
// Not sets every high bit unconditionally, Neg and Sub wrap to full 64
// bits for most inputs, Add/Mul/Shl spill on carries. A destination in
// the global region is a small bonus: the garbage lands directly in
// architectural state instead of needing to propagate there.
func bugScore(in *sim.LInstr, globalWords int) int {
	s := bugWeights[in.Op]
	if in.Op != sim.OpMemWr && int(in.Dst) < globalWords {
		s += 5
	}
	return s
}

var bugWeights = map[sim.OpCode]int{
	sim.OpNot: 40, sim.OpNeg: 35, sim.OpSub: 30,
	sim.OpAdd: 20, sim.OpMul: 20, sim.OpShl: 20, sim.OpDshl: 20,
}

// mask applies in's result mask to expr, eliding the no-op ^0 AND. This is
// where BugDropMask plants its defect: the chosen maskable site loses the
// AND.
func (e *emitter) mask(t, pc int, in *sim.LInstr, expr string) string {
	if in.Mask == ^uint64(0) {
		return expr
	}
	if e.scan {
		e.sites = append(e.sites, maskSite{t, pc, bugScore(in, e.p.GlobalWords)})
	} else if e.bug == BugDropMask && e.bugSite == "" && t == e.bugT && pc == e.bugC {
		e.bugSite = fmt.Sprintf("thread %d pc %d", t, pc)
		return expr
	}
	return fmt.Sprintf("%s & %#x", expr, in.Mask)
}

// cond wraps an emitted boolean condition. This is where BugCmpInvert
// plants its defect: the chosen comparison is negated.
func (e *emitter) cond(t, pc int, c string) string {
	if e.scan {
		e.csites = append(e.csites, maskSite{t: t, pc: pc})
	} else if e.bug == BugCmpInvert && e.bugSite == "" && t == e.bugT && pc == e.bugC {
		e.bugSite = fmt.Sprintf("thread %d pc %d", t, pc)
		return fmt.Sprintf("!(%s)", c)
	}
	return c
}

// blockedSlots marks operand positions that must stay state loads: those
// optable.NeedsLoad names for the template, and every operand of an
// instruction whose reads are all immediates (the whole expression would
// be constant).
func blockedSlots(lp *sim.LinkedProgram, p *sim.Program, in *sim.LInstr, tmpl string) [3]bool {
	ops := [3]uint32{in.A, in.B, in.C}
	reads := sim.TraitsOf(in.Op).Reads
	allImm := reads > 0
	for k := 0; k < reads; k++ {
		i := int(ops[k]) - lp.ImmOff
		if i < 0 || i >= len(p.Imms) {
			allImm = false
		}
	}
	var blocked [3]bool
	for k := range blocked {
		blocked[k] = allImm || optable.NeedsLoad(tmpl, k)
	}
	return blocked
}
