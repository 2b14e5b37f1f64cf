package tvalid

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// Emission validation extends the translation-validation chain one layer
// further down: tvalid.Validate proves linked ≡ O0; ValidateEmission proves
// that the instruction stream a code generator claims to have emitted is
// the linked stream, 1:1 and in order. The generator (internal/codegen)
// records one EmitRecord per linked instruction as it prints code; this
// check replays those records against the LinkedProgram they were emitted
// from. It is structural — it proves the emitter consumed exactly the
// validated stream with sound constant inlining, while the printed text
// itself is checked dynamically (difftest oracle column, CI state-hash
// equality), so a printer bug cannot hide behind a faithful record.

// EmitRecord is the emitter's claim about one generated instruction: the
// linked instruction it printed code for and which of its operands were
// inlined as literal constants instead of state loads.
type EmitRecord struct {
	Thread int
	PC     int
	// Instr is the linked instruction the emitter translated, copied
	// verbatim at emission time.
	Instr sim.LInstr
	// Inlined marks operands A,B,C (in that order) the emitter replaced
	// with a literal; InlinedVal holds the literal printed. An inlined
	// operand must address the immediate region and the literal must equal
	// the immediate's value.
	Inlined    [3]bool
	InlinedVal [3]uint64
}

// EmissionResult is the certificate of one emission validation run.
type EmissionResult struct {
	Threads int
	Pairs   int // (record, linked instruction) pairs checked
	Inlined int // operand inlinings proven against the immediate table
	Elapsed time.Duration
	// Divergences lists every violation found; empty means the emission is
	// proven 1:1 with its linked source.
	Divergences []string
}

// Valid reports whether the emission was proven faithful.
func (r *EmissionResult) Valid() bool { return len(r.Divergences) == 0 }

// Err returns nil for a valid emission, or an error naming the first
// divergence (and how many more there are).
func (r *EmissionResult) Err() error {
	if r.Valid() {
		return nil
	}
	if len(r.Divergences) == 1 {
		return fmt.Errorf("tvalid: emission diverges from linked source: %s", r.Divergences[0])
	}
	return fmt.Errorf("tvalid: emission diverges from linked source: %s (+%d more)",
		r.Divergences[0], len(r.Divergences)-1)
}

func (r *EmissionResult) String() string {
	if r.Valid() {
		return fmt.Sprintf("emission validated: %d instrs across %d threads (%d operands inlined) in %v",
			r.Pairs, r.Threads, r.Inlined, r.Elapsed.Round(time.Microsecond))
	}
	return fmt.Sprintf("emission INVALID: %d divergence(s) over %d instrs", len(r.Divergences), r.Pairs)
}

// ValidateEmission checks a code generator's emission records against the
// linked program they were generated from: complete (every linked
// instruction of every thread appears exactly once, in order), verbatim
// (the recorded instruction equals the linked one field-for-field), and
// soundly inlined (each inlined operand addresses the immediate region, is
// actually read by the opcode, and the printed literal equals the
// immediate's value; destinations are never inlined).
func ValidateEmission(lp *sim.LinkedProgram, recs []EmitRecord) *EmissionResult {
	start := time.Now()
	p := lp.Program()
	res := &EmissionResult{Threads: len(lp.Threads)}
	diverge := func(format string, args ...any) {
		if len(res.Divergences) < 32 {
			res.Divergences = append(res.Divergences, fmt.Sprintf(format, args...))
		}
	}

	// Split records by thread, insisting on thread-major, PC-ascending
	// order — the order a straight-line emitter necessarily produces.
	byThread := make([][]EmitRecord, len(lp.Threads))
	lastT := -1
	for i, r := range recs {
		if r.Thread < 0 || r.Thread >= len(lp.Threads) {
			diverge("record %d names thread %d of %d", i, r.Thread, len(lp.Threads))
			continue
		}
		if r.Thread < lastT {
			diverge("record %d: thread %d after thread %d (not thread-major)", i, r.Thread, lastT)
		}
		lastT = r.Thread
		if want := len(byThread[r.Thread]); r.PC != want {
			diverge("thread %d: record pc %d, want %d (missing, duplicated, or reordered)", r.Thread, r.PC, want)
		}
		byThread[r.Thread] = append(byThread[r.Thread], r)
	}

	for t := range lp.Threads {
		code := lp.Threads[t].Code
		trecs := byThread[t]
		if len(trecs) != len(code) {
			diverge("thread %d: %d records for %d linked instrs", t, len(trecs), len(code))
		}
		n := min(len(trecs), len(code))
		for pc := 0; pc < n; pc++ {
			res.Pairs++
			rec := &trecs[pc]
			in := &code[pc]
			if rec.Instr != *in {
				diverge("thread %d pc %d: recorded %v %+v, linked has %v %+v",
					t, pc, rec.Instr.Op, rec.Instr, in.Op, *in)
				continue
			}
			checkInlining(lp, p, t, pc, rec, res, diverge)
		}
	}
	res.Elapsed = time.Since(start)
	return res
}

// checkInlining proves each claimed constant inlining against the
// immediate table.
func checkInlining(lp *sim.LinkedProgram, p *sim.Program, t, pc int, rec *EmitRecord, res *EmissionResult, diverge func(string, ...any)) {
	in := &rec.Instr
	reads := sim.TraitsOf(in.Op).Reads // OpMemWr reads 3: addr, data, enable
	ops := [3]uint32{in.A, in.B, in.C}
	names := [3]string{"A", "B", "C"}
	for k := range ops {
		if !rec.Inlined[k] {
			continue
		}
		if k >= reads {
			diverge("thread %d pc %d: operand %s inlined but %v reads only %d operand(s)",
				t, pc, names[k], in.Op, reads)
			continue
		}
		idx := int(ops[k])
		if idx < lp.ImmOff || idx >= lp.ImmOff+len(p.Imms) {
			diverge("thread %d pc %d: operand %s (state %d) inlined but is not in the immediate region [%d,%d)",
				t, pc, names[k], idx, lp.ImmOff, lp.ImmOff+len(p.Imms))
			continue
		}
		if want := p.Imms[idx-lp.ImmOff]; rec.InlinedVal[k] != want {
			diverge("thread %d pc %d: operand %s inlined as %#x, immediate %d holds %#x",
				t, pc, names[k], rec.InlinedVal[k], idx-lp.ImmOff, want)
			continue
		}
		res.Inlined++
	}
	// A destination in the immediate region would make the generated code
	// write the shared read-only constant copy.
	if writesDst(in) {
		if idx := int(in.Dst); idx >= lp.ImmOff && idx < lp.ImmOff+len(p.Imms) {
			diverge("thread %d pc %d: %v destination %d lies in the immediate region", t, pc, in.Op, idx)
		}
	}
}

// writesDst reports whether the linked instruction stores to in.Dst as a
// scalar state word.
func writesDst(in *sim.LInstr) bool {
	return in.Op != sim.OpNop && in.Op != sim.OpMemWr
}
