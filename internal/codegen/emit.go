package codegen

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/verify/tvalid"
)

// The emitter prints each linked thread's instruction stream as
// straight-line Go statements over the unified state slice, reproducing
// evalLinked's semantics case for case (linkexec.go is the normative
// source; the cross-engine tests and the difftest column enforce
// bit-identity). Three deviations from a 1:1 transliteration, all
// semantics-preserving:
//
//   - immediate operands are inlined as uint64 literals (the linked state
//     holds a read-only copy of the immediate table, so st[immOff+i] ==
//     Imms[i] always), except in positions where a constant literal could
//     turn a subexpression into an overflowing Go constant expression —
//     constant shifts and int64 conversions — and except when every read
//     of an instruction is an immediate (an all-constant Go expression);
//   - a result mask of ^0 elides the AND;
//   - each chunk function opens with a bounds-check hint (_ = st[max]) so
//     the compiler drops the per-access checks on the constant indices.
//
// Streams are split into chunk functions of at most chunkInstrs
// instructions: Go's compiler handles many medium functions far better
// than one enormous one.

// chunkInstrs bounds the linked instructions per generated function.
const chunkInstrs = 1024

// Emission is one generated kernel source plus the emitter's per-
// instruction claims, checked 1:1 against the linked program by
// tvalid.ValidateEmission before anything is built.
type Emission struct {
	Source  []byte
	Records []tvalid.EmitRecord
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
		Records: e.records,
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

	records []tvalid.EmitRecord
	rec     *tvalid.EmitRecord // record of the instruction being printed
	block   [3]bool            // operand slots not eligible for inlining

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

// instr emits one linked instruction, mirroring the evalLinked case arms,
// and appends its emission record.
func (e *emitter) instr(b *strings.Builder, t, pc int, in *sim.LInstr) error {
	e.records = append(e.records, tvalid.EmitRecord{Thread: t, PC: pc, Instr: *in})
	e.rec = &e.records[len(e.records)-1]
	e.block = blockedSlots(e.lp, e.p, in)

	d := fmt.Sprintf("st[%d]", in.Dst)
	m := func(expr string) string { return e.mask(t, pc, expr, in.Mask) }
	switch in.Op {
	case sim.OpNop:
	case sim.OpCopy:
		fmt.Fprintf(b, "\t%s = %s\n", d, m(e.op(in.A, 0)))
	case sim.OpAdd:
		fmt.Fprintf(b, "\t%s = %s\n", d, m(fmt.Sprintf("(%s + %s)", e.op(in.A, 0), e.op(in.B, 1))))
	case sim.OpSub:
		fmt.Fprintf(b, "\t%s = %s\n", d, m(fmt.Sprintf("(%s - %s)", e.op(in.A, 0), e.op(in.B, 1))))
	case sim.OpMul:
		fmt.Fprintf(b, "\t%s = %s\n", d, m(fmt.Sprintf("(%s * %s)", e.op(in.A, 0), e.op(in.B, 1))))
	case sim.OpMulHi:
		fmt.Fprintf(b, "\t{\n\t\thi, _ := bits.Mul64(%s, %s)\n\t\t%s = %s\n\t}\n", e.op(in.A, 0), e.op(in.B, 1), d, m("hi"))
		e.needBits = true
	case sim.OpDiv:
		fmt.Fprintf(b, "\tif y := %s; y == 0 {\n\t\t%s = 0\n\t} else {\n\t\t%s = %s\n\t}\n",
			e.op(in.B, 1), d, d, m(fmt.Sprintf("(%s / y)", e.op(in.A, 0))))
	case sim.OpRem:
		fmt.Fprintf(b, "\tif y := %s; y == 0 {\n\t\t%s = %s\n\t} else {\n\t\t%s = %s\n\t}\n",
			e.op(in.B, 1), d, m(e.op(in.A, 0)), d, m(fmt.Sprintf("(%s %% y)", e.op(in.A, 0))))
	case sim.OpSDiv:
		fmt.Fprintf(b, "\tswitch x, y := int64(%s), int64(%s); {\n", e.op(in.A, 0), e.op(in.B, 1))
		fmt.Fprintf(b, "\tcase y == 0:\n\t\t%s = 0\n", d)
		fmt.Fprintf(b, "\tcase y == -1:\n\t\t%s = %s\n", d, m("uint64(-x)")) // avoids MinInt64 / -1 trap
		fmt.Fprintf(b, "\tdefault:\n\t\t%s = %s\n\t}\n", d, m("uint64(x/y)"))
	case sim.OpSRem:
		fmt.Fprintf(b, "\tswitch x, y := int64(%s), int64(%s); {\n", e.op(in.A, 0), e.op(in.B, 1))
		fmt.Fprintf(b, "\tcase y == 0:\n\t\t%s = %s\n", d, m("uint64(x)"))
		fmt.Fprintf(b, "\tcase y == -1:\n\t\t%s = 0\n", d)
		fmt.Fprintf(b, "\tdefault:\n\t\t%s = %s\n\t}\n", d, m("uint64(x%y)"))
	case sim.OpLt, sim.OpLeq, sim.OpGt, sim.OpGeq, sim.OpEq, sim.OpNeq:
		fmt.Fprintf(b, "\t%s = b2u(%s)\n", d,
			e.cond(t, pc, fmt.Sprintf("%s %s %s", e.op(in.A, 0), cmpTok(in.Op), e.op(in.B, 1))))
		e.needB2u = true
	case sim.OpSLt, sim.OpSLeq, sim.OpSGt, sim.OpSGeq:
		fmt.Fprintf(b, "\t%s = b2u(%s)\n", d,
			e.cond(t, pc, fmt.Sprintf("int64(%s) %s int64(%s)", e.op(in.A, 0), cmpTok(in.Op), e.op(in.B, 1))))
		e.needB2u = true
	case sim.OpAnd:
		fmt.Fprintf(b, "\t%s = %s\n", d, m(fmt.Sprintf("(%s & %s)", e.op(in.A, 0), e.op(in.B, 1))))
	case sim.OpOr:
		fmt.Fprintf(b, "\t%s = %s\n", d, m(fmt.Sprintf("(%s | %s)", e.op(in.A, 0), e.op(in.B, 1))))
	case sim.OpXor:
		fmt.Fprintf(b, "\t%s = %s\n", d, m(fmt.Sprintf("(%s ^ %s)", e.op(in.A, 0), e.op(in.B, 1))))
	case sim.OpNot:
		fmt.Fprintf(b, "\t%s = %s\n", d, m(fmt.Sprintf("^%s", e.op(in.A, 0))))
	case sim.OpNeg:
		fmt.Fprintf(b, "\t%s = %s\n", d, m(fmt.Sprintf("(-%s)", e.op(in.A, 0))))
	case sim.OpAndr:
		fmt.Fprintf(b, "\t%s = b2u(%s == %#x)\n", d, e.op(in.A, 0), in.Mask)
		e.needB2u = true
	case sim.OpOrr:
		fmt.Fprintf(b, "\t%s = b2u(%s != 0)\n", d, e.op(in.A, 0))
		e.needB2u = true
	case sim.OpXorr:
		fmt.Fprintf(b, "\t%s = uint64(bits.OnesCount64(%s) & 1)\n", d, e.op(in.A, 0))
		e.needBits = true
	case sim.OpCat:
		fmt.Fprintf(b, "\t%s = %s\n", d, m(fmt.Sprintf("(%s<<%d | %s)", e.op(in.A, 0), in.Aux, e.op(in.B, 1))))
	case sim.OpShl:
		fmt.Fprintf(b, "\t%s = %s\n", d, m(fmt.Sprintf("(%s << %d)", e.op(in.A, 0), in.Aux)))
	case sim.OpShr:
		fmt.Fprintf(b, "\t%s = %s\n", d, m(fmt.Sprintf("(%s >> %d)", e.op(in.A, 0), in.Aux)))
	case sim.OpSar:
		fmt.Fprintf(b, "\t%s = %s\n", d, m(fmt.Sprintf("uint64(int64(%s) >> %d)", e.op(in.A, 0), in.Aux)))
	case sim.OpDshl:
		fmt.Fprintf(b, "\tif n := %s; n >= 64 {\n\t\t%s = 0\n\t} else {\n\t\t%s = %s\n\t}\n",
			e.op(in.B, 1), d, d, m(fmt.Sprintf("(%s << n)", e.op(in.A, 0))))
	case sim.OpDshr:
		fmt.Fprintf(b, "\tif n := %s; n >= 64 {\n\t\t%s = 0\n\t} else {\n\t\t%s = %s\n\t}\n",
			e.op(in.B, 1), d, d, m(fmt.Sprintf("(%s >> n)", e.op(in.A, 0))))
	case sim.OpDsar:
		fmt.Fprintf(b, "\t{\n\t\tn := %s\n\t\tif n > 63 {\n\t\t\tn = 63\n\t\t}\n\t\t%s = %s\n\t}\n",
			e.op(in.B, 1), d, m(fmt.Sprintf("uint64(int64(%s) >> n)", e.op(in.A, 0))))
	case sim.OpMux:
		fmt.Fprintf(b, "\tif %s != 0 {\n\t\t%s = %s\n\t} else {\n\t\t%s = %s\n\t}\n",
			e.op(in.A, 0), d, m(e.op(in.B, 1)), d, m(e.op(in.C, 2)))
	case sim.OpSext:
		fmt.Fprintf(b, "\t%s = %s\n", d, sxU(e.op(in.A, 0), in.Aux)) // full 64-bit value, NOT masked
	case sim.OpMemRd:
		fmt.Fprintf(b, "\tif q, x := mems[%d], %s; x < uint64(len(q)) {\n\t\t%s = %s\n\t} else {\n\t\t%s = 0\n\t}\n",
			in.Aux, e.op(in.A, 0), d, m("q[x]"), d)
	case sim.OpMemWr:
		fmt.Fprintf(b, "\tif %s != 0 {\n\t\tmemwr(%d, %s, %s)\n\t}\n",
			e.op(in.C, 2), in.Aux, e.op(in.A, 0), m(e.op(in.B, 1)))
	default:
		return fmt.Errorf("codegen: unhandled opcode %v (thread %d pc %d)", in.Op, t, pc)
	}
	return nil
}

// op prints operand slot k (state index idx): a uint64 literal when the
// operand addresses the immediate region and the position allows inlining,
// else the state load. Inlinings are recorded for ValidateEmission.
func (e *emitter) op(idx uint32, k int) string {
	if !e.block[k] {
		if i := int(idx) - e.lp.ImmOff; i >= 0 && i < len(e.p.Imms) {
			e.rec.Inlined[k] = true
			e.rec.InlinedVal[k] = e.p.Imms[i]
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
	s := 0
	switch in.Op {
	case sim.OpNot:
		s = 40
	case sim.OpNeg:
		s = 35
	case sim.OpSub:
		s = 30
	case sim.OpAdd, sim.OpMul, sim.OpShl, sim.OpDshl:
		s = 20
	}
	if in.Op != sim.OpMemWr && int(in.Dst) < globalWords {
		s += 5
	}
	return s
}

// mask applies the result mask, eliding the no-op ^0 AND. This is where
// BugDropMask plants its defect: the chosen maskable site loses the AND
// while its emission record keeps the true instruction.
func (e *emitter) mask(t, pc int, expr string, m uint64) string {
	if m == ^uint64(0) {
		return expr
	}
	if e.scan {
		e.sites = append(e.sites, maskSite{t, pc, bugScore(&e.rec.Instr, e.p.GlobalWords)})
	} else if e.bug == BugDropMask && e.bugSite == "" && t == e.bugT && pc == e.bugC {
		e.bugSite = fmt.Sprintf("thread %d pc %d", t, pc)
		return expr
	}
	return fmt.Sprintf("%s & %#x", expr, m)
}

// cond wraps an emitted boolean condition. This is where BugCmpInvert
// plants its defect: the chosen comparison is negated while its emission
// record keeps the true instruction.
func (e *emitter) cond(t, pc int, c string) string {
	if e.scan {
		e.csites = append(e.csites, maskSite{t: t, pc: pc})
	} else if e.bug == BugCmpInvert && e.bugSite == "" && t == e.bugT && pc == e.bugC {
		e.bugSite = fmt.Sprintf("thread %d pc %d", t, pc)
		return fmt.Sprintf("!(%s)", c)
	}
	return c
}

// sxU prints the executor's signExtend64(expr, w) as an inline uint64
// expression; w == 0 or >= 64 returns expr unchanged.
func sxU(expr string, w uint32) string {
	if w == 0 || w >= 64 {
		return expr
	}
	return fmt.Sprintf("uint64(int64(%s<<%d) >> %d)", expr, 64-w, 64-w)
}

// cmpTok is the Go comparison token of a compare opcode.
func cmpTok(op sim.OpCode) string {
	switch op {
	case sim.OpLt, sim.OpSLt:
		return "<"
	case sim.OpLeq, sim.OpSLeq:
		return "<="
	case sim.OpGt, sim.OpSGt:
		return ">"
	case sim.OpGeq, sim.OpSGeq:
		return ">="
	case sim.OpEq:
		return "=="
	default: // OpNeq
		return "!="
	}
}

// blockedSlots marks operand positions that must stay state loads. Two
// classes: positions where a literal would form a constant Go
// subexpression that can overflow at compile time (the constant shift in
// OpCat, int64 conversions of possibly-high-bit constants in the signed
// ops), and whole instructions every operand of which is an immediate (the
// full expression would be constant).
func blockedSlots(lp *sim.LinkedProgram, p *sim.Program, in *sim.LInstr) [3]bool {
	var blocked [3]bool
	switch in.Op {
	case sim.OpCat, sim.OpSar, sim.OpDsar:
		blocked[0] = true
	case sim.OpSLt, sim.OpSLeq, sim.OpSGt, sim.OpSGeq, sim.OpSDiv, sim.OpSRem:
		blocked[0], blocked[1] = true, true
	}
	// All-immediate reads: keep every operand a load so no expression is
	// fully constant.
	ops := [3]uint32{in.A, in.B, in.C}
	reads := sim.TraitsOf(in.Op).Reads
	allImm := reads > 0
	for k := 0; k < reads; k++ {
		i := int(ops[k]) - lp.ImmOff
		if i < 0 || i >= len(p.Imms) {
			allImm = false
		}
	}
	if allImm {
		return [3]bool{true, true, true}
	}
	return blocked
}
