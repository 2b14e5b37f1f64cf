package verify

// Mutation tests prove the detector is live: each test injects one fault
// class into a correctly compiled program and asserts the verifier reports
// it with full thread/PC/slot provenance. A verifier that cannot catch
// these would pass clean programs vacuously.

import (
	"testing"

	"repro/internal/sim"
)

// mutProgram compiles the standard two-thread test program the mutations
// corrupt.
func mutProgram(t *testing.T) *sim.Program {
	t.Helper()
	g := mustGraph(t, memMixSrc)
	p, _ := compileParts(t, g, 2, 0) // O0: keep every def so mutations have targets
	if p.NumThreads != 2 {
		t.Fatalf("want 2 threads, got %d", p.NumThreads)
	}
	return p
}

// findDiag returns the first Error diagnostic of the given check family.
func findDiag(t *testing.T, rep *Report, c Check) Diag {
	t.Helper()
	return findSeverity(t, rep, c, Error)
}

// findSeverity returns the first diagnostic of the given check family and
// severity.
func findSeverity(t *testing.T, rep *Report, c Check, sev Severity) Diag {
	t.Helper()
	for _, d := range rep.Diags {
		if d.Check == c && d.Severity == sev {
			return d
		}
	}
	t.Fatalf("no %s %s reported; report:\n%s", c, sev, rep.String())
	return Diag{}
}

// requireProvenance asserts a diagnostic names its thread, PC, and slot.
func requireProvenance(t *testing.T, d Diag) {
	t.Helper()
	if d.Thread < 0 || d.PC < 0 || d.Slot == "" {
		t.Fatalf("diagnostic lacks provenance (thread=%d pc=%d slot=%q): %s",
			d.Thread, d.PC, d.Slot, d)
	}
}

// codeOf returns thread th's linked code, which the mutations corrupt.
func codeOf(p *sim.Program, th int) []sim.LInstr { return p.Threads[th].Code }

// isTemp reports whether state index idx is one of thread th's private
// temps.
func isTemp(p *sim.Program, th int, idx uint32) bool {
	loc, owner, ok := p.LinkedLoc(idx)
	return ok && owner == th && loc.Space == sim.SpaceLocal
}

// firstLocalDef returns the pc of the first plain instruction on thread t
// whose destination is a private temp.
func firstLocalDef(t *testing.T, p *sim.Program, th int) int {
	t.Helper()
	for pc, in := range codeOf(p, th) {
		if in.Op == sim.OpNop || in.Op == sim.OpMemWr {
			continue
		}
		if isTemp(p, th, in.Dst) {
			return pc
		}
	}
	t.Fatalf("thread %d has no plain local def", th)
	return -1
}

// tempDefUse appends the private temps of thread th that instruction in
// defines and reads.
func tempDefUse(p *sim.Program, th int, in *sim.LInstr, defs, uses []uint32) ([]uint32, []uint32) {
	local := func(out []uint32, refs ...uint32) []uint32 {
		for _, r := range refs {
			if isTemp(p, th, r) {
				out = append(out, r)
			}
		}
		return out
	}
	if in.Op != sim.OpNop {
		refs := [3]uint32{in.A, in.B, in.C}
		uses = local(uses, refs[:sim.TraitsOf(in.Op).Reads]...)
		if in.Op != sim.OpMemWr {
			defs = local(defs, in.Dst)
		}
	}
	return defs, uses
}

// firstLocalUse returns the first (defPC, usePC) pair on thread t where
// usePC reads a private temp that defPC defines.
func firstLocalUse(t *testing.T, p *sim.Program, th int) (defPC, usePC int) {
	t.Helper()
	def := map[uint32]int{}
	var defs, uses []uint32
	for pc := range codeOf(p, th) {
		defs, uses = tempDefUse(p, th, &codeOf(p, th)[pc], defs[:0], uses[:0])
		for _, u := range uses {
			if dp, ok := def[u]; ok {
				return dp, pc
			}
		}
		for _, d := range defs {
			def[d] = pc
		}
	}
	t.Fatalf("thread %d has no local def/use pair", th)
	return -1, -1
}

// Fault class 1 — cross-thread write: thread 0 retargets a store into
// thread 1's commit segment, racing with thread 1's commit memcpy and
// every eval-phase reader of that word.
func TestMutationCrossThreadWrite(t *testing.T) {
	p := mutProgram(t)
	victim := uint32(p.Threads[1].GlobalOff)
	if int(victim) >= p.GlobalWords {
		victim = 0 // degenerate layout: clobber the input region instead
	}
	mutPC := firstLocalDef(t, p, 0)
	codeOf(p, 0)[mutPC].Dst = victim

	rep := Program(p, Options{})
	if rep.Err() == nil {
		t.Fatal("cross-thread write not detected")
	}
	d := findDiag(t, rep, CheckRace)
	requireProvenance(t, d)
	if d.Thread != 0 || d.PC != mutPC {
		t.Fatalf("wrong provenance: got thread %d pc %d, want thread 0 pc %d: %s",
			d.Thread, d.PC, mutPC, d)
	}
}

// Fault class 2 — missing definition: delete the instruction that defines
// a temp another instruction reads; the partition is no longer closed.
func TestMutationMissingDef(t *testing.T) {
	p := mutProgram(t)
	defPC, usePC := firstLocalUse(t, p, 0)
	codeOf(p, 0)[defPC] = sim.LInstr{Op: sim.OpNop}

	rep := Program(p, Options{})
	if rep.Err() == nil {
		t.Fatal("missing definition not detected")
	}
	d := findDiag(t, rep, CheckClosure)
	requireProvenance(t, d)
	if d.Thread != 0 || d.PC != usePC {
		t.Fatalf("wrong provenance: got thread %d pc %d, want thread 0 pc %d: %s",
			d.Thread, d.PC, usePC, d)
	}
}

// Fault class 3 — phase violation: an eval-phase instruction reads an
// output slot, which only becomes valid after the commit barrier. This is
// the cross-thread read-after-write the two-phase protocol forbids.
func TestMutationPhaseViolation(t *testing.T) {
	p := mutProgram(t)
	var outSlot uint32
	found := false
	for _, o := range p.Outputs {
		if o.Width <= 64 {
			outSlot, found = o.Slot, true
			break
		}
	}
	if !found {
		t.Fatal("no narrow output to cross-wire")
	}
	mutPC := -1
	for pc, in := range codeOf(p, 0) {
		if in.Op == sim.OpNop {
			continue
		}
		if sim.TraitsOf(in.Op).Reads > 0 && isTemp(p, 0, in.A) {
			mutPC = pc
			break
		}
	}
	if mutPC < 0 {
		t.Fatal("no retargetable operand on thread 0")
	}
	codeOf(p, 0)[mutPC].A = outSlot

	rep := Program(p, Options{})
	if rep.Err() == nil {
		t.Fatal("phase violation not detected")
	}
	d := findDiag(t, rep, CheckClosure)
	requireProvenance(t, d)
	if d.Thread != 0 || d.PC != mutPC {
		t.Fatalf("wrong provenance: got thread %d pc %d, want thread 0 pc %d: %s",
			d.Thread, d.PC, mutPC, d)
	}
}

// Fault class 4 — cross-wired shadow ref: a sink store redirected to a
// sibling shadow word leaves one sink stale and double-drives the other.
func TestMutationCrossWiredShadow(t *testing.T) {
	p := mutProgram(t)
	mutThread, mutPC := -1, -1
	var other uint32
	for ti := range p.Threads {
		n := uint32(p.Threads[ti].ShadowWords)
		if n < 2 {
			continue
		}
		off := p.Threads[ti].ShadowOff
		for pc, in := range codeOf(p, ti) {
			if in.Op != sim.OpNop && in.Op != sim.OpMemWr && in.Dst >= off && in.Dst < off+n {
				other = off + (in.Dst-off+1)%n
				mutThread, mutPC = ti, pc
				break
			}
		}
		if mutPC >= 0 {
			break
		}
	}
	if mutPC < 0 {
		t.Skip("no thread with two narrow shadow words")
	}
	codeOf(p, mutThread)[mutPC].Dst = other

	rep := Program(p, Options{})
	if rep.Err() == nil {
		t.Fatal("cross-wired shadow ref not detected")
	}
	d := findDiag(t, rep, CheckSchedule)
	if d.Thread != mutThread || d.Slot == "" {
		t.Fatalf("wrong provenance: %s", d)
	}
}

// Fault class 6 — overlapping commit segments: two threads claim the same
// global words, so their commit memcpys race.
func TestMutationOverlappingSegments(t *testing.T) {
	p := mutProgram(t)
	if p.Threads[0].ShadowWords == 0 || p.Threads[1].ShadowWords == 0 {
		t.Skip("both threads need narrow sinks")
	}
	p.Threads[1].GlobalOff = p.Threads[0].GlobalOff

	rep := Program(p, Options{})
	if rep.Err() == nil {
		t.Fatal("overlapping commit segments not detected")
	}
	d := findDiag(t, rep, CheckRace)
	if d.Thread < 0 || d.Slot == "" {
		t.Fatalf("layout diagnostic lacks thread/slot: %s", d)
	}
}
