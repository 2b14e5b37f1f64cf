// Package verify statically proves that a compiled sim.Program upholds the
// invariants RepCut's parallel runtime depends on, instead of trusting the
// partitioner and code generator end-to-end. It reconstructs per-instruction
// def/use sets from the linked stream every engine and the native emitter
// run (sim.LinkedProgram.LinkedDefUse) and checks three invariant families:
//
//   - Race freedom (§5.1, Figure 5): during the evaluation phase threads
//     write only private temps and their own shadow; every shared global
//     word a thread reads is a register or input source, stable until the
//     commit phase; commit segments are written by exactly one thread and
//     do not overlap.
//
//   - Replication closure (§4.2, Formulas 1–2): every value a thread reads
//     is an immediate, a register/input source, or defined earlier in the
//     same thread's instruction stream — the executable form of the paper's
//     guarantee that replication drives the intra-cycle cut to zero.
//
//   - Schedule well-formedness (§4.1): per-thread def-before-use ordering,
//     every sink slot written exactly once per cycle, all operand indices in
//     bounds, memory instructions consistent with the program's MemSpecs.
//
// On top of these it proves the link-time exchange table exact (exchange.go):
// each thread evaluates over its own prefix of the linked state and sees
// another thread's registers only through copies the table names.
//
// The verifier reports structured diagnostics with thread/PC/slot
// provenance rather than a boolean, so an injected fault names exactly
// where the emitted program went wrong. Every compiled program keeps
// combinational values in thread-private temps, so all families apply to
// every program.
package verify

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/bitvec"
	"repro/internal/cgraph"
	"repro/internal/sim"
	"repro/internal/verify/tvalid"
)

// Severity ranks a diagnostic.
type Severity uint8

// Severities. Only Error makes Report.Err non-nil.
const (
	Info Severity = iota
	Warning
	Error
)

func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	}
	return fmt.Sprintf("?severity(%d)", uint8(s))
}

// Check names the invariant family a diagnostic belongs to.
type Check string

// The invariant families. The first three are structural; CheckTranslation
// is the semantic family (O0 vs optimized equivalence, internal/verify/
// tvalid); CheckBatch covers the lane-batched engine's layout contract and
// CheckExchange the multi-threaded engine's register exchange.
const (
	CheckRace        Check = "race-freedom"
	CheckClosure     Check = "replication-closure"
	CheckSchedule    Check = "schedule"
	CheckTranslation Check = "translation"
	CheckBatch       Check = "batch-layout"
	CheckExchange    Check = "exchange"
)

// Diag is one finding, with full provenance: which thread's code, which
// instruction, and which storage slot.
type Diag struct {
	Check    Check
	Severity Severity
	Thread   int    // executing/owning thread; -1 when not thread-specific
	PC       int    // instruction index within the thread's code; -1 for layout findings
	Slot     string // human-readable storage location, e.g. "global word 37 (reg 'r3', segment of thread 1)"
	Msg      string
}

func (d Diag) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s [%s]", d.Severity, d.Check)
	if d.Thread >= 0 {
		fmt.Fprintf(&sb, " thread %d", d.Thread)
	}
	if d.PC >= 0 {
		fmt.Fprintf(&sb, " pc %d", d.PC)
	}
	if d.Slot != "" {
		fmt.Fprintf(&sb, " at %s", d.Slot)
	}
	fmt.Fprintf(&sb, ": %s", d.Msg)
	return sb.String()
}

// Options supply optional context that enables deeper cross-checks.
type Options struct {
	// Graph, with Parts, enables the graph-level closure cross-check: each
	// partition must contain every non-source predecessor of its vertices
	// (earlier in the list), own its sinks uniquely, and agree with the
	// program's shadow layout on sink counts.
	Graph *cgraph.Graph
	// Parts is the partitioning the program was compiled from (one spec per
	// thread, e.g. from core.Partition or sim.SerialSpec).
	Parts []sim.PartSpec
	// Deprecated: Linked is ignored. The linked stream is always the one
	// the verifier scans; the field remains only because bench/layers.go
	// still sets it.
	Linked bool
	// Validate runs translation validation (internal/verify/tvalid): the
	// program is proven to compute the same cycle function as an O0
	// reference recompiled from Graph+Parts. Requires Graph and Parts.
	// Divergences surface as CheckTranslation errors and the full
	// certificate as Report.Validation.
	Validate bool
}

// Report is the outcome of verifying one program.
type Report struct {
	Design  string
	Threads int
	Instrs  int // instructions scanned
	Locs    int // def/use locations examined
	Diags   []Diag
	Elapsed time.Duration
	// Validation is the translation-validation certificate when
	// Options.Validate ran (nil otherwise).
	Validation *tvalid.Result
}

// Count returns the number of diagnostics at the given severity.
func (r *Report) Count(sev Severity) int {
	n := 0
	for i := range r.Diags {
		if r.Diags[i].Severity == sev {
			n++
		}
	}
	return n
}

// Err returns nil when no Error-severity diagnostics were found, and
// otherwise an error quoting the first few.
func (r *Report) Err() error {
	errs := r.Count(Error)
	if errs == 0 {
		return nil
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "verify %s: %d error(s)", r.Design, errs)
	shown := 0
	for i := range r.Diags {
		if r.Diags[i].Severity != Error {
			continue
		}
		sb.WriteString("\n  ")
		sb.WriteString(r.Diags[i].String())
		if shown++; shown == 5 {
			if errs > shown {
				fmt.Fprintf(&sb, "\n  ... and %d more", errs-shown)
			}
			break
		}
	}
	return fmt.Errorf("%s", sb.String())
}

// String summarizes the report in one line.
func (r *Report) String() string {
	verdict := "proven race-free and partition-closed"
	if n := r.Count(Error); n > 0 {
		verdict = fmt.Sprintf("%d ERRORS", n)
	}
	extra := ""
	if n := r.Count(Warning); n > 0 {
		extra = fmt.Sprintf(", %d warnings", n)
	}
	return fmt.Sprintf("verify %s: %d threads, %d instrs, %d locations in %v: %s%s",
		r.Design, r.Threads, r.Instrs, r.Locs, r.Elapsed.Round(10*time.Microsecond), verdict, extra)
}

// slotClass classifies a global word by what the layout says lives there.
type slotClass uint8

const (
	clPad    slotClass = iota // padding or shared-mode scratch
	clInput                   // top-level input port
	clReg                     // register (read source and committed write)
	clOutput                  // top-level output port (committed write only)
	clDerep                   // shared-read slot of a dereplicated register group
)

func (c slotClass) String() string {
	switch c {
	case clInput:
		return "input"
	case clReg:
		return "reg"
	case clOutput:
		return "output"
	case clDerep:
		return "derep"
	}
	return "pad"
}

type verifier struct {
	p    *sim.Program
	opts Options
	rep  *Report

	// Global-word model: class, committing thread (-1 none), name.
	wordClass []slotClass
	wordSeg   []int
	wordName  []string

	// mems is Program.Memories(): each memory's first word column.
	// memWriters[m] is the set of threads holding write ports of memory m,
	// whichever of its columns they write.
	mems       []int
	memWriters [][]int

	// remoteReads[r] counts, per global word of another thread's segment
	// that thread r's code reads, the exchange entries that deliver it.
	remoteReads []map[uint32]int
}

// Program statically verifies a compiled program and returns the full
// diagnostic report. It scans the program's linked form, building and
// caching it if the program has not been linked yet (engines would build
// it anyway); it never modifies the program's observable state and is safe
// to run concurrently with other analyses of the same Program.
func Program(p *sim.Program, opts Options) *Report {
	start := time.Now()
	v := &verifier{
		p:    p,
		opts: opts,
		rep:  &Report{Design: p.Design, Threads: p.NumThreads},
	}
	v.layout()
	v.rep.Instrs = p.TotalInstrs()
	// The batch-layout scan is a precondition of the linked-stream scan:
	// scanLinked classifies flat state indices by the region layout, so if
	// the layout itself is corrupt the classification is meaningless (and
	// would index off the end of per-region tracking). Prove the layout
	// first and only scan the streams when it holds.
	pre := v.rep.Count(Error)
	v.scanBatch()
	if v.rep.Count(Error) == pre {
		v.scanLinked()
		v.checkExchange()
	}
	v.checkMems()
	v.crossCheck()
	if opts.Validate {
		v.validate()
	}
	v.rep.Elapsed = time.Since(start)
	return v.rep
}

func (v *verifier) diag(c Check, sev Severity, thread, pc int, slot, msg string) {
	v.rep.Diags = append(v.rep.Diags, Diag{
		Check: c, Severity: sev, Thread: thread, PC: pc, Slot: slot, Msg: msg,
	})
}

// wordDesc names a global word for diagnostics.
func (v *verifier) wordDesc(idx uint32) string {
	if int(idx) >= len(v.wordClass) {
		return fmt.Sprintf("global word %d (out of range)", idx)
	}
	desc := fmt.Sprintf("global word %d (%s", idx, v.wordClass[idx])
	if n := v.wordName[idx]; n != "" {
		desc += fmt.Sprintf(" %q", n)
	}
	if s := v.wordSeg[idx]; s >= 0 {
		desc += fmt.Sprintf(", segment of thread %d", s)
	}
	return desc + ")"
}

// layout reconstructs the global storage model from the program and checks
// the commit-phase half of race freedom: thread segments must be disjoint,
// cache-line aligned, and cover every word of every register and output.
func (v *verifier) layout() {
	p := v.p
	v.wordClass = make([]slotClass, p.GlobalWords)
	v.wordSeg = make([]int, p.GlobalWords)
	v.wordName = make([]string, p.GlobalWords)
	for i := range v.wordSeg {
		v.wordSeg[i] = -1
	}
	v.mems = p.Memories()
	v.memWriters = make([][]int, len(v.mems))

	classify := func(name string, width int, slot uint32, cl slotClass) {
		for k := range uint32(bitvec.WordsFor(width)) {
			if int(slot+k) >= p.GlobalWords {
				v.diag(CheckSchedule, Error, -1, -1, fmt.Sprintf("global word %d", slot+k),
					fmt.Sprintf("%s %q slot out of range (%d words)", cl, name, p.GlobalWords))
				return
			}
			v.wordClass[slot+k], v.wordName[slot+k] = cl, name
		}
	}
	for _, in := range p.Inputs {
		classify(in.Name, in.Width, in.Slot, clInput)
	}
	for i := range p.Regs {
		classify(p.Regs[i].Name, p.Regs[i].Width, p.Regs[i].Slot, clReg)
	}
	for _, out := range p.Outputs {
		classify(out.Name, out.Width, out.Slot, clOutput)
	}

	// Dereplicated register groups form the shared-read tier: each group's
	// registers alias one narrow slot in the owning thread's commit
	// segment, republished (with the group driver's value) once per cycle.
	// Reclassify those slots so the scans name the tier explicitly; their
	// read contract is the register one (stable for the whole eval phase),
	// proven by the same segment-disjointness and eval-write checks.
	if g := v.opts.Graph; g != nil {
		regSlot := map[string]uint32{}
		for i := range p.Regs {
			if p.Regs[i].Width <= 64 {
				regSlot[p.Regs[i].Name] = p.Regs[i].Slot
			}
		}
		for _, ps := range v.opts.Parts {
			for _, d := range ps.Dereps {
				for _, ri := range d.Regs {
					if int(ri) >= len(g.Regs) {
						continue // checkDereps reports the range error
					}
					if slot, ok := regSlot[g.Regs[ri].Name]; ok && int(slot) < len(v.wordClass) {
						v.wordClass[slot] = clDerep
					}
				}
			}
		}
	}

	// Per-thread commit segments.
	for t := range p.Threads {
		th := &p.Threads[t]
		if th.GlobalOff%sim.SegmentWords != 0 {
			v.diag(CheckRace, Warning, t, -1, fmt.Sprintf("global word %d", th.GlobalOff),
				fmt.Sprintf("commit segment not aligned to %d-word cache lines: false sharing with the neighboring segment", sim.SegmentWords))
		}
		for i := 0; i < th.ShadowWords; i++ {
			w := th.GlobalOff + i
			if w >= p.GlobalWords {
				v.diag(CheckSchedule, Error, t, -1, fmt.Sprintf("global word %d", w),
					fmt.Sprintf("commit segment [%d,%d) overruns the %d-word global array", th.GlobalOff, th.GlobalOff+th.ShadowWords, p.GlobalWords))
				break
			}
			if v.wordClass[w] == clInput {
				v.diag(CheckRace, Error, t, -1, v.wordDesc(uint32(w)),
					"commit segment overlaps the input region: commit-phase memcpy would clobber poked inputs")
				continue
			}
			if prev := v.wordSeg[w]; prev >= 0 {
				v.diag(CheckRace, Error, t, -1, v.wordDesc(uint32(w)),
					fmt.Sprintf("commit segments of threads %d and %d overlap: concurrent commit-phase writes race", prev, t))
				continue
			}
			v.wordSeg[w] = t
		}
	}

	// Every word of every register and output must be published by exactly
	// one thread's commit, or it silently holds its reset value forever.
	published := func(kind, name string, slot uint32, width int) {
		for k := range uint32(bitvec.WordsFor(width)) {
			if w := slot + k; int(w) < p.GlobalWords && v.wordSeg[w] < 0 {
				v.diag(CheckSchedule, Error, -1, -1, v.wordDesc(w),
					fmt.Sprintf("%s %q is outside every commit segment: never published", kind, name))
				return
			}
		}
	}
	for i := range p.Regs {
		published("register", p.Regs[i].Name, p.Regs[i].Slot, p.Regs[i].Width)
	}
	for _, o := range p.Outputs {
		published("output", o.Name, o.Slot, o.Width)
	}
}

// checkMems flags memories whose write ports span threads. The engine
// cannot let each writer publish such a memory on its own (a thread's
// catch-up write of the previous cycle could land after another thread's
// write of this cycle), so the barrier's last arriver commits them
// serially: race-free and deterministic, but off the parallel path, and
// two ports hitting one address in the same cycle resolve by thread order,
// which address disjointness would make moot but cannot be proven
// statically.
func (v *verifier) checkMems() {
	for m, ws := range v.memWriters {
		if len(ws) > 1 {
			v.diag(CheckRace, Warning, -1, -1, fmt.Sprintf("mem %q", v.p.Mems[v.mems[m]].Name),
				fmt.Sprintf("write ports owned by threads %v: committed serially at the barrier, by cycle then thread order; same-cycle writes to one address resolve to the highest thread (address disjointness not statically provable)", ws))
		}
	}
}

// crossCheck validates the program against the partition it was compiled
// from: graph-level closure (every non-source predecessor present and
// earlier), unique sink ownership, every owned sink executed by its owner,
// demoted register writes neither owned nor executed, and agreement between
// the partition's sink words and the program's shadow layout. Closure plus
// executed sinks is coverage: every vertex a surviving sink depends on runs
// in that sink's partition.
func (v *verifier) crossCheck() {
	g, parts := v.opts.Graph, v.opts.Parts
	if g == nil || len(parts) == 0 {
		return
	}
	p := v.p
	if len(parts) != len(p.Threads) {
		v.diag(CheckClosure, Error, -1, -1, "",
			fmt.Sprintf("partition count %d does not match thread count %d", len(parts), len(p.Threads)))
		return
	}
	// Demoted register writes do not execute anywhere: the owner's derep
	// commit republishes the driver's value instead, so their sinks are
	// legitimately owned by no partition.
	demoted := map[cgraph.VID]bool{}
	for _, ps := range parts {
		for _, d := range ps.Dereps {
			for _, ri := range d.Regs {
				if int(ri) < len(g.Regs) {
					demoted[g.Regs[ri].Write] = true
				}
			}
		}
	}
	sinkOwner := map[cgraph.VID]int{}
	for t := range parts {
		in := make(map[cgraph.VID]int, len(parts[t].Vertices))
		for i, vid := range parts[t].Vertices {
			if prev, dup := in[vid]; dup {
				v.diag(CheckClosure, Error, t, -1, g.Vs[vid].Name,
					fmt.Sprintf("vertex appears twice in the partition (positions %d and %d)", prev, i))
				continue
			}
			in[vid] = i
		}
		for _, vid := range parts[t].Vertices {
			if demoted[vid] {
				v.diag(CheckRace, Error, t, -1, g.Vs[vid].Name,
					"dereplicated register write still executed by a partition: the owner's shared-read slot replaces it")
			}
			for _, pr := range g.Preds[vid] {
				if g.Vs[pr].Kind.IsSource() {
					continue
				}
				pi, ok := in[pr]
				switch {
				case !ok:
					v.diag(CheckClosure, Error, t, -1, g.Vs[vid].Name,
						fmt.Sprintf("predecessor %s is not replicated into this partition: the cut is not zero", g.Vs[pr].Name))
				case pi >= in[vid]:
					v.diag(CheckClosure, Error, t, -1, g.Vs[vid].Name,
						fmt.Sprintf("scheduled before its predecessor %s: not a topological order", g.Vs[pr].Name))
				}
			}
		}
		// Sink ownership and layout agreement: a sink takes one shadow word
		// per 64 bits of its width.
		sinkWords := 0
		for _, s := range parts[t].Sinks {
			if prev, dup := sinkOwner[s]; dup {
				v.diag(CheckClosure, Error, t, -1, g.Vs[s].Name,
					fmt.Sprintf("sink also owned by thread %d: double commit", prev))
			}
			sinkOwner[s] = t
			if _, ok := in[s]; !ok {
				v.diag(CheckClosure, Error, t, -1, g.Vs[s].Name,
					"sink not executed by its owner: its cone is never computed")
			}
			if demoted[s] {
				v.diag(CheckRace, Error, t, -1, g.Vs[s].Name,
					"dereplicated register write still owned as a sink: it would commit alongside the owner's shared-read slot")
			}
			if g.Vs[s].Kind != cgraph.KindMemWrite { // buffered, no shadow words
				sinkWords += bitvec.WordsFor(g.Vs[s].Type.Width)
			}
		}
		if th := &p.Threads[t]; sinkWords+len(parts[t].Dereps) != th.ShadowWords {
			v.diag(CheckSchedule, Error, t, -1, "",
				fmt.Sprintf("partition owns %d sink words and %d derep slots but the thread's shadow has %d words",
					sinkWords, len(parts[t].Dereps), th.ShadowWords))
		}
	}
	for _, s := range g.Sinks() {
		if _, ok := sinkOwner[s]; !ok && !demoted[s] {
			v.diag(CheckClosure, Error, -1, -1, g.Vs[s].Name,
				"sink owned by no partition: its state is never updated")
		}
	}
	v.checkDereps(g, parts)
}

// checkDereps proves the shared-read tier sound: for every dereplicated
// register group, the committed slot holds exactly the register's
// previous-cycle value. That requires (1) the group driver to be a
// non-source vertex the owner computes, (2) every grouped register's
// next-value driver to BE that vertex — otherwise a reader through the
// shared slot would observe a same-cycle (or wrong) value, (3) equal widths
// (no sign-extension is applied at the derep commit), (4) equal reset
// values (the grouped registers alias one initialized word), and (5) the
// shared slot to live in the owner's commit segment, published by the owner
// alone. Together with scanLinked's phase discipline (no eval-phase global
// writes, exactly-once shadow production) this proves eval-phase reads of
// the slot race-free under the two-phase protocol.
func (v *verifier) checkDereps(g *cgraph.Graph, parts []sim.PartSpec) {
	p := v.p
	regSlot := map[string]uint32{}
	regWide := map[string]bool{}
	for i := range p.Regs {
		regSlot[p.Regs[i].Name] = p.Regs[i].Slot
		regWide[p.Regs[i].Name] = p.Regs[i].Width > 64
	}
	seen := map[int32]int{} // graph reg index -> thread whose group demoted it
	for t := range parts {
		if len(parts[t].Dereps) == 0 {
			continue
		}
		th := &p.Threads[t]
		in := make(map[cgraph.VID]bool, len(parts[t].Vertices))
		for _, vid := range parts[t].Vertices {
			in[vid] = true
		}
		for _, d := range parts[t].Dereps {
			if int(d.Owner) != t {
				v.diag(CheckSchedule, Error, t, -1, "",
					fmt.Sprintf("derep group records owner %d but is compiled into thread %d", d.Owner, t))
			}
			if int(d.U) >= len(g.Vs) {
				v.diag(CheckSchedule, Error, t, -1, "",
					fmt.Sprintf("derep group driver vertex %d out of range (%d vertices)", d.U, len(g.Vs)))
				continue
			}
			u := &g.Vs[d.U]
			if u.Kind.IsSource() {
				v.diag(CheckRace, Error, t, -1, u.Name,
					"derep group driver is a source: the committed slot would hold the current cycle's value, one cycle early")
				continue
			}
			if !in[d.U] {
				v.diag(CheckClosure, Error, t, -1, u.Name,
					"derep group driver is not computed by the owner partition: the commit would publish an undefined value")
			}
			uw := u.Type.Width
			if uw > 64 {
				v.diag(CheckSchedule, Error, t, -1, u.Name,
					fmt.Sprintf("derep group driver is %d bits wide: the shared-read tier is narrow-only", uw))
			}
			slot, haveSlot := -1, false
			var groupInit string
			for gi, ri := range d.Regs {
				if int(ri) >= len(g.Regs) {
					v.diag(CheckSchedule, Error, t, -1, "",
						fmt.Sprintf("derep group register index %d out of range (%d registers)", ri, len(g.Regs)))
					continue
				}
				r := &g.Regs[ri]
				if prev, dup := seen[ri]; dup {
					v.diag(CheckSchedule, Error, t, -1, r.Name,
						fmt.Sprintf("register demoted by two derep groups (threads %d and %d)", prev, t))
				}
				seen[ri] = t
				w := r.Write
				if len(g.Vs[w].Args) == 0 || g.Vs[w].Args[0].V != d.U {
					drv := "<none>"
					if len(g.Vs[w].Args) > 0 {
						drv = g.Vs[g.Vs[w].Args[0].V].Name
					}
					v.diag(CheckRace, Error, t, -1, r.Name,
						fmt.Sprintf("dereplicated register's next-value driver is %s, not the group driver %s: readers of the shared slot would observe a same-cycle value", drv, u.Name))
				}
				if r.Type.Width != uw {
					v.diag(CheckSchedule, Error, t, -1, r.Name,
						fmt.Sprintf("register width %d differs from group driver width %d: the uncorrected commit mis-extends", r.Type.Width, uw))
				}
				if init := r.Init.String(); gi == 0 {
					groupInit = init
				} else if init != groupInit {
					v.diag(CheckSchedule, Error, t, -1, r.Name,
						fmt.Sprintf("register reset value %s differs from its group's %s: one shared word cannot hold both", init, groupInit))
				}
				s, ok := regSlot[r.Name]
				switch {
				case !ok:
					v.diag(CheckSchedule, Error, t, -1, r.Name,
						"dereplicated register missing from the program's register table")
				case regWide[r.Name]:
					v.diag(CheckSchedule, Error, t, -1, r.Name,
						"dereplicated register compiled as wide: the shared-read tier is narrow-only")
				case !haveSlot:
					slot, haveSlot = int(s), true
				case int(s) != slot:
					v.diag(CheckSchedule, Error, t, -1, r.Name,
						fmt.Sprintf("group registers alias different slots (%d and %d): they cannot share one committed word", slot, s))
				}
			}
			if haveSlot {
				if slot < len(v.wordSeg) && v.wordSeg[slot] != t {
					v.diag(CheckRace, Error, t, -1, v.wordDesc(uint32(slot)),
						fmt.Sprintf("shared-read slot is committed by thread %d, not the group owner: the owner's derep copy would race", v.wordSeg[slot]))
				}
				if slot < th.GlobalOff || slot >= th.GlobalOff+th.ShadowWords {
					v.diag(CheckRace, Error, t, -1, v.wordDesc(uint32(slot)),
						fmt.Sprintf("shared-read slot outside the owner's commit segment [%d,%d)", th.GlobalOff, th.GlobalOff+th.ShadowWords))
				}
			}
		}
	}
}
