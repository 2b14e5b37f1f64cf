package codegen

import (
	"cmp"
	"fmt"
	"slices"
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
//   - statements follow schedule's order, not PC order: each root (a write
//     of a memory or of a word outside the thread's temps) in PC order,
//     preceded by the producers it depends on in depth-first post-order,
//     so a temp is defined right before its readers;
//   - a temp whose def and every read fall in one chunk function is a Go
//     local of that chunk (t<i> for temp word i), which the compiler can
//     keep in a register; the kernel never writes that temp's state word,
//     which is dead scratch at every cycle boundary anyway;
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
// than one enormous one. Each cut sits where the fewest temps are live in
// the last half of its window, so most temps end up chunk-local.

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

// Emit generates plugin source for every thread of the program.
func Emit(p *sim.Program, o EmitOptions) (*Emission, error) {
	e := &emitter{p: p, bug: o.Bug}
	if o.Bug != BugNone {
		// Scan pass: collect every maskable site, then plant the bug where
		// it can actually be observed (see bugScore).
		s := &emitter{p: p, scan: true}
		var discard strings.Builder
		for t := range p.Threads {
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
		// Sites are collected in emission order; pick the best-scoring
		// one with the lowest (thread, linked PC).
		slices.SortFunc(cands, func(a, b maskSite) int {
			return cmp.Or(cmp.Compare(a.t, b.t), cmp.Compare(a.pc, b.pc))
		})
		pick := cands[0]
		for _, site := range cands {
			if site.score > pick.score {
				pick = site
			}
		}
		e.bugT, e.bugC = pick.t, pick.pc
	}
	var body strings.Builder
	for t := range p.Threads {
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
	for t := range p.Threads {
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
		Threads: len(p.Threads),
		Chunks:  e.chunks,
		Inlined: e.inlined,
		BugSite: e.bugSite,
	}, nil
}

// emitter carries one Emit run's state.
type emitter struct {
	p   *sim.Program
	bug Bug

	block [3]bool // operand slots not eligible for inlining

	// The chunk being emitted: its thread's first temp word and which of
	// the thread's temps are its locals.
	tempOff uint32
	local   []bool

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
	th := &e.p.Threads[t]
	order := schedule(e.p, t)
	tl := tempLives(e.p, t, order)
	cuts := chunkCuts(tl.live(len(order)))
	fmt.Fprintf(b, "func eval%d%s {\n", t, threadSig)
	if len(cuts) > 2 {
		for c := 0; c+1 < len(cuts); c++ {
			fmt.Fprintf(b, "\teval%d_%d(st, mems, memwr)\n", t, c)
		}
		b.WriteString("}\n\n")
	}
	e.tempOff = th.TempOff
	for c := 0; c+1 < len(cuts); c++ {
		if len(cuts) > 2 {
			fmt.Fprintf(b, "func eval%d_%d%s {\n", t, c, threadSig)
		}
		e.local = tl.locals(cuts[c], cuts[c+1])
		if err := e.chunk(b, t, order[cuts[c]:cuts[c+1]]); err != nil {
			return err
		}
		b.WriteString("}\n\n")
		e.chunks++
	}
	return nil
}

// chunk emits the instructions at the given linked PCs of thread t.
func (e *emitter) chunk(b *strings.Builder, t int, pcs []int) error {
	code := e.p.Threads[t].Code
	var names []string
	for i, l := range e.local {
		if l {
			names = append(names, fmt.Sprintf("t%d", i))
		}
	}
	for len(names) > 0 {
		n := min(len(names), 16)
		fmt.Fprintf(b, "\tvar %s uint64\n", strings.Join(names[:n], ", "))
		names = names[n:]
	}
	// Bounds-check hint: every constant state index below is provably in
	// range after this, and it doubles as an ABI guard — a short slice
	// panics here, not mid-stream. It loads the highest state word the
	// chunk itself touches (unused operand fields are 0; locals have
	// none), never another thread's frame, so it adds no access that
	// could race.
	var top uint32
	for _, pc := range pcs {
		in := &code[pc]
		for _, idx := range [4]uint32{in.Dst, in.A, in.B, in.C} {
			if !e.isLocal(idx) {
				top = max(top, idx)
			}
		}
	}
	if len(pcs) > 0 {
		fmt.Fprintf(b, "\t_ = st[%d]\n", top)
	}
	for _, pc := range pcs {
		if err := e.instr(b, t, pc, &code[pc]); err != nil {
			return err
		}
	}
	return nil
}

// isLocal reports whether state index idx prints as a local of the chunk
// being emitted.
func (e *emitter) isLocal(idx uint32) bool {
	i := int(idx) - int(e.tempOff)
	return i >= 0 && i < len(e.local) && e.local[i]
}

// word prints state index idx: its chunk local, or the state load/store.
func (e *emitter) word(idx uint32) string {
	if e.isLocal(idx) {
		return fmt.Sprintf("t%d", int(idx)-int(e.tempOff))
	}
	return fmt.Sprintf("st[%d]", idx)
}

// schedule returns thread t's emission order, a permutation of its linked
// PCs. Each instruction follows everything it depends on in PC order: the
// last writer of every word it reads or writes, the readers of every word
// it overwrites, and the previous memory write (the memwr buffer's order
// decides a same-address winner; memory reads see the pre-cycle contents
// and need no order). So any such order computes what PC order computes.
// Roots, the instructions that write a memory or a word outside the
// thread's temps, come in PC order, each preceded by its not yet emitted
// dependencies in depth-first post-order; whatever no root reaches
// follows in PC order.
func schedule(p *sim.Program, t int) []int {
	th := &p.Threads[t]
	code := th.Code
	deps := make([][]int, len(code))
	var roots []int
	lastDef := map[uint32]int{}
	readers := map[uint32][]int{}
	lastWr := -1
	var defs, uses []uint32
	var mdefs []sim.Loc
	for pc := range code {
		defs, uses, mdefs, _ = p.LinkedDefUse(&code[pc], defs[:0], uses[:0], mdefs[:0], nil)
		var d []int
		for _, u := range uses {
			if w, ok := lastDef[u]; ok {
				d = append(d, w)
			}
			readers[u] = append(readers[u], pc)
		}
		root := len(mdefs) > 0
		for _, w := range defs {
			if prev, ok := lastDef[w]; ok {
				d = append(d, prev)
			}
			for _, r := range readers[w] {
				if r != pc {
					d = append(d, r)
				}
			}
			delete(readers, w)
			lastDef[w] = pc
			root = root || w < th.TempOff || w >= th.ShadowOff
		}
		if len(mdefs) > 0 {
			if lastWr >= 0 {
				d = append(d, lastWr)
			}
			lastWr = pc
		}
		deps[pc] = d
		if root {
			roots = append(roots, pc)
		}
	}
	order := make([]int, 0, len(code))
	seen := make([]bool, len(code))
	var visit func(pc int)
	visit = func(pc int) {
		if seen[pc] {
			return
		}
		seen[pc] = true
		for _, d := range deps[pc] {
			visit(d)
		}
		order = append(order, pc)
	}
	for _, r := range roots {
		visit(r)
	}
	for pc := range code {
		visit(pc)
	}
	return order
}

// tempSpans records, per temp word of one thread, where in the emission
// order its def and its last read sit. def is -1 for a temp that cannot
// be a local: defined more than once, never read, or read before its def.
type tempSpans struct {
	def, last []int
}

// tempLives locates every temp's def and reads in order.
func tempLives(p *sim.Program, t int, order []int) *tempSpans {
	th := &p.Threads[t]
	n := int(th.ShadowOff - th.TempOff)
	s := &tempSpans{def: make([]int, n), last: make([]int, n)}
	for i := range s.def {
		s.def[i], s.last[i] = -1, -1
	}
	bad := make([]bool, n)
	var ds, us []uint32
	for pos, pc := range order {
		ds, us, _, _ = p.LinkedDefUse(&th.Code[pc], ds[:0], us[:0], nil, nil)
		for _, u := range us {
			if i := int(u) - int(th.TempOff); i >= 0 && i < n {
				bad[i] = bad[i] || s.def[i] < 0
				s.last[i] = pos
			}
		}
		for _, w := range ds {
			if i := int(w) - int(th.TempOff); i >= 0 && i < n {
				bad[i] = bad[i] || s.def[i] >= 0
				s.def[i] = pos
			}
		}
	}
	for i := range s.def {
		if bad[i] || s.last[i] < s.def[i] {
			s.def[i] = -1
		}
	}
	return s
}

// live returns, for every boundary b in [0, n], how many eligible temps
// are defined before position b and read at or after it.
func (s *tempSpans) live(n int) []int {
	live := make([]int, n+1)
	for i, d := range s.def {
		if d >= 0 {
			live[d+1]++
			live[s.last[i]+1]--
		}
	}
	for b := 1; b <= n; b++ {
		live[b] += live[b-1]
	}
	return live
}

// locals marks the temps whose def and every read fall in [lo, hi).
func (s *tempSpans) locals(lo, hi int) []bool {
	l := make([]bool, len(s.def))
	for i, d := range s.def {
		l[i] = d >= lo && s.last[i] < hi
	}
	return l
}

// chunkCuts splits n = len(live)-1 emitted instructions into chunks of at
// most chunkInstrs, cutting each at the boundary with the fewest live
// temps in the last half of its window (the latest such one). It returns
// the boundaries, from 0 to n.
func chunkCuts(live []int) []int {
	n := len(live) - 1
	cuts := []int{0}
	for s := 0; n-s > chunkInstrs; {
		best := s + chunkInstrs
		for c := best - 1; c >= s+chunkInstrs/2; c-- {
			if live[c] < live[best] {
				best = c
			}
		}
		cuts = append(cuts, best)
		s = best
	}
	return append(cuts, n)
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
	e.block = blockedSlots(e.p, in, tmpl)
	ops := [3]uint32{in.A, in.B, in.C}
	stmt := optable.Expand(tmpl, &optable.Target{
		Dst:     e.word(in.Dst),
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
// else the local or state load.
func (e *emitter) op(idx uint32, k int) string {
	if !e.block[k] {
		if i := int(idx) - e.p.ImmOff; i >= 0 && i < len(e.p.Imms) {
			e.inlined++
			return fmt.Sprintf("uint64(%#x)", e.p.Imms[i])
		}
	}
	return e.word(idx)
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
func blockedSlots(p *sim.Program, in *sim.LInstr, tmpl string) [3]bool {
	ops := [3]uint32{in.A, in.B, in.C}
	reads := sim.TraitsOf(in.Op).Reads
	allImm := reads > 0
	for k := 0; k < reads; k++ {
		i := int(ops[k]) - p.ImmOff
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
