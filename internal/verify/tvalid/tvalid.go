// Package tvalid is a translation validator for the sim compile pipeline:
// it proves, per compile, that the optimized program computes the same
// cycle function as its unoptimized (O0) reference.
//
// Both programs' linked code, the one code form a sim.Program stores, is
// symbolically evaluated per thread over the same free register/input
// variables into hash-consed term DAGs. (Both sides share operand
// resolution, so the structural verifier's linked scan and difftest's
// linked-O0 column cover that instead.) A
// normalization engine (constant folding through the real executor,
// commutative operand ordering, mask and sign-extension idempotence, mux
// absorption, copy-chain collapsing) canonicalizes terms so that every
// rewrite the optimising emitter may legally perform maps both sides onto
// the identical interned term: pointer-equal terms prove the slot pair
// equivalent. Residual hash-mismatched pairs — normalization is
// deliberately incomplete rather than unsound — fall back to seeded
// concrete probing of the two real engines over boundary-pattern stimulus;
// a concrete mismatch refutes equivalence with a thread/pc/slot diagnostic
// naming both defining instructions.
package tvalid

import (
	"fmt"
	"strings"
	"time"
	"unsafe"

	"repro/internal/bitvec"
	"repro/internal/sim"
)

// Options tunes the concrete-probing fallback.
type Options struct {
	// Seed for the random stimulus rounds (default 1).
	Seed int64
}

// The concrete-probing fallback's fixed size.
const (
	// probeRounds is the number of stimulus rounds the probe runs when the
	// symbolic proof leaves residual mismatches: four boundary patterns
	// plus two random.
	probeRounds = 6
	// probeCycles is the number of cycles per probe round.
	probeCycles = 8
)

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Divergence is one refuted slot pair: the optimized stream provably (by
// concrete witness) or structurally (layout mismatch) computes a different
// function than the O0 reference for this slot.
type Divergence struct {
	Thread int
	// RefPC / OptPC are the defining instructions on each side (-1 when no
	// instruction defines the slot on that side).
	RefPC int
	OptPC int
	// RefInstr / OptInstr name the defining instructions (opcode text).
	RefInstr string
	OptInstr string
	// Slot names what diverges: a register/output shadow word or a
	// memory-write list position.
	Slot string
	// Detail carries the refutation: the concrete probe witness, or the
	// structural reason no probe was needed.
	Detail string
}

func (d Divergence) String() string {
	return fmt.Sprintf("thread %d at %s: O0 pc %d (%s) vs optimized pc %d (%s): %s",
		d.Thread, d.Slot, d.RefPC, d.RefInstr, d.OptPC, d.OptInstr, d.Detail)
}

// Result is the validation certificate for one compile.
type Result struct {
	Design  string
	Threads int
	// Pairs is the number of compared slot pairs (shadow words and memory
	// writes) across all threads; Proved of them were settled by hash
	// equality, Probed by the concrete fallback.
	Pairs  int
	Proved int
	Probed int
	// ArenaBytes is the peak hash-cons arena the proof built.
	ArenaBytes  int64
	Elapsed     time.Duration
	Divergences []Divergence
}

// Err returns nil for a validated program, or an error
// quoting the first few divergences.
func (r *Result) Err() error {
	if r == nil || len(r.Divergences) == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "translation validation failed: %d divergence(s)", len(r.Divergences))
	for i, d := range r.Divergences {
		if i == 3 {
			fmt.Fprintf(&b, "; ... %d more", len(r.Divergences)-i)
			break
		}
		b.WriteString("; ")
		b.WriteString(d.String())
	}
	return fmt.Errorf("%s", b.String())
}

// Valid reports whether the program was checked and every pair proved or
// probed clean.
func (r *Result) Valid() bool {
	return r != nil && len(r.Divergences) == 0
}

// String summarizes the certificate.
func (r *Result) String() string {
	if len(r.Divergences) > 0 {
		return fmt.Sprintf("INVALID: %d divergence(s), %d/%d pairs proved (%s)",
			len(r.Divergences), r.Proved, r.Pairs, r.Elapsed.Round(time.Millisecond))
	}
	return fmt.Sprintf("valid: %d pairs (%d proved, %d probed), arena %d B, %s",
		r.Pairs, r.Proved, r.Probed, r.ArenaBytes, r.Elapsed.Round(time.Millisecond))
}

// MemBytes is the certificate's cache charge: the retained metadata plus
// the hash-cons arena the proof built. The arena itself is released when
// Validate returns, but charging its peak keeps cache admission honest
// about what re-validating the entry after an eviction would cost.
func (r *Result) MemBytes() int64 {
	if r == nil {
		return 0
	}
	n := int64(unsafe.Sizeof(*r)) + int64(len(r.Design))
	for _, d := range r.Divergences {
		n += int64(unsafe.Sizeof(d))
		n += int64(len(d.Slot) + len(d.Detail) + len(d.RefInstr) + len(d.OptInstr))
	}
	return n + r.ArenaBytes
}

// candidate is a slot pair the symbolic proof could not settle.
type candidate struct {
	thread   int
	refPC    int
	optPC    int
	refInstr string
	optInstr string
	slot     string
}

// Validate proves (or refutes) that opt's linked code computes the same
// cycle function as the O0 reference ref's.
// Both programs must come from the same design and partition (the compile
// pipeline guarantees layout-identical slot assignment across opt levels;
// Validate checks it).
func Validate(ref, opt *sim.Program, o Options) *Result {
	o = o.withDefaults()
	start := time.Now()
	res := &Result{Design: opt.Design, Threads: opt.NumThreads}
	defer func() { res.Elapsed = time.Since(start) }()

	if d, ok := layoutCompatible(ref, opt); !ok {
		res.Divergences = append(res.Divergences, Divergence{
			Thread: -1, RefPC: -1, OptPC: -1,
			RefInstr: "-", OptInstr: "-",
			Slot:   "layout",
			Detail: "reference and optimized programs are not layout-compatible: " + d,
		})
		return res
	}

	b := newBuilder(ref.TotalInstrs() + opt.TotalInstrs())
	for _, in := range opt.Inputs {
		b.bound(in.Slot, in.Width)
	}
	for i := range opt.Regs {
		b.bound(opt.Regs[i].Slot, opt.Regs[i].Width)
	}

	var cands []candidate
	for t := 0; t < opt.NumThreads; t++ {
		s0 := execLinked(b, ref, t)
		s2 := execLinked(b, opt, t)
		cands = append(cands, compareThread(ref, opt, t, s0, s2, res)...)
	}
	res.ArenaBytes = b.arenaBytes()

	if len(cands) == 0 {
		return res
	}
	witness, diverged := probe(ref, opt, o)
	if !diverged {
		// The symbolic mismatch was normalization incompleteness: the
		// concrete sweep over boundary and random stimulus found the two
		// programs agreeing everywhere.
		res.Probed += len(cands)
		return res
	}
	for _, c := range cands {
		res.Divergences = append(res.Divergences, Divergence{
			Thread: c.thread, RefPC: c.refPC, OptPC: c.optPC,
			RefInstr: c.refInstr, OptInstr: c.optInstr,
			Slot:   c.slot,
			Detail: "optimized stream computes a different function than the O0 reference; " + witness,
		})
	}
	return res
}

// compareThread pairs up the two symbolic images of one thread.
func compareThread(ref, opt *sim.Program, t int, s0, s2 *threadState, res *Result) []candidate {
	th := &opt.Threads[t]
	var cands []candidate

	add := func(slot string, refPC, optPC int) {
		cands = append(cands, candidate{
			thread: t, refPC: refPC, optPC: optPC,
			refInstr: instrName(ref, t, refPC), optInstr: instrName(opt, t, optPC), slot: slot,
		})
	}

	for i := 0; i < th.ShadowWords; i++ {
		res.Pairs++
		a, bT := s0.shadow[i], s2.shadow[i]
		if a == nil && bT == nil {
			res.Proved++ // neither side writes it; the structural verifier flags this separately
			continue
		}
		if a != nil && bT != nil && a == bT && a.kind != tkUndef {
			res.Proved++
			continue
		}
		pc0, pc2 := -1, -1
		if a != nil {
			pc0 = s0.shadowPC[i]
		}
		if bT != nil {
			pc2 = s2.shadowPC[i]
		}
		add(slotName(opt, uint32(th.GlobalOff+i)), pc0, pc2)
	}

	nw := len(s0.writes)
	if len(s2.writes) > nw {
		nw = len(s2.writes)
	}
	for i := 0; i < nw; i++ {
		res.Pairs++
		if i >= len(s0.writes) || i >= len(s2.writes) {
			var w memWrite
			pc0, pc2 := -1, -1
			if i < len(s0.writes) {
				w, pc0 = s0.writes[i], s0.writes[i].pc
			} else {
				w, pc2 = s2.writes[i], s2.writes[i].pc
			}
			add(memWriteName(opt, w.mem, i), pc0, pc2)
			continue
		}
		a, bb := s0.writes[i], s2.writes[i]
		if a.mem == bb.mem && a.addr == bb.addr && a.data == bb.data && a.en == bb.en &&
			a.addr.kind != tkUndef && a.data.kind != tkUndef && a.en.kind != tkUndef {
			res.Proved++
			continue
		}
		add(memWriteName(opt, a.mem, i), a.pc, bb.pc)
	}
	return cands
}

// instrName names thread t's linked instruction at pc by its opcode.
func instrName(p *sim.Program, t, pc int) string {
	if code := p.Threads[t].Code; pc >= 0 && pc < len(code) {
		return code[pc].Op.String()
	}
	return "(none)"
}

// layoutCompatible checks the precondition that makes slot-by-slot
// comparison meaningful: both programs use the identical state layout.
func layoutCompatible(ref, opt *sim.Program) (string, bool) {
	switch {
	case ref.NumThreads != opt.NumThreads:
		return fmt.Sprintf("thread counts differ (%d vs %d)", ref.NumThreads, opt.NumThreads), false
	case ref.GlobalWords != opt.GlobalWords:
		return fmt.Sprintf("global word counts differ (%d vs %d)", ref.GlobalWords, opt.GlobalWords), false
	case len(ref.Mems) != len(opt.Mems):
		return fmt.Sprintf("memory counts differ (%d vs %d)", len(ref.Mems), len(opt.Mems)), false
	}
	for t := range ref.Threads {
		a, bb := &ref.Threads[t], &opt.Threads[t]
		if a.GlobalOff != bb.GlobalOff || a.ShadowWords != bb.ShadowWords {
			return fmt.Sprintf("thread %d commit segment differs (off %d/%d words %d/%d)",
				t, a.GlobalOff, bb.GlobalOff, a.ShadowWords, bb.ShadowWords), false
		}
	}
	return "", true
}

// slotName names a global word for diagnostics, matching the structural
// verifier's wordDesc convention: a word past the first of a value wider
// than 64 bits carries its index.
func slotName(p *sim.Program, w uint32) string {
	name := func(kind, n string, slot uint32) string {
		if w == slot {
			return fmt.Sprintf("%s %q (global word %d)", kind, n, w)
		}
		return fmt.Sprintf("%s %q word %d (global word %d)", kind, n, w-slot, w)
	}
	owns := func(slot uint32, width int) bool { return w >= slot && int(w-slot) < bitvec.WordsFor(width) }
	for i := range p.Regs {
		if r := &p.Regs[i]; owns(r.Slot, r.Width) {
			return name("reg", r.Name, r.Slot)
		}
	}
	for i := range p.Outputs {
		if o := &p.Outputs[i]; owns(o.Slot, o.Width) {
			return name("output", o.Name, o.Slot)
		}
	}
	for i := range p.Inputs {
		if in := &p.Inputs[i]; owns(in.Slot, in.Width) {
			return name("input", in.Name, in.Slot)
		}
	}
	return fmt.Sprintf("global word %d", w)
}

// memWriteName names position i of a thread's memory-write list.
func memWriteName(p *sim.Program, mem, i int) string {
	if mem >= 0 && mem < len(p.Mems) {
		return fmt.Sprintf("mem %q write #%d", p.Mems[mem].Name, i)
	}
	return fmt.Sprintf("mem #%d write #%d", mem, i)
}
