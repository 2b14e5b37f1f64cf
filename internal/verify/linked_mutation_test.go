package verify

// Linked-scan mutation tests prove the verifier inspects the cached linked
// execution form — the resolved streams the engines run — not the compiled
// Program code. Each test compiles a clean program, forces the linked form
// into the program's cache, corrupts the cached streams directly (the
// Program code stays clean), and asserts the scan reports the fault with
// provenance.

import (
	"testing"

	"repro/internal/sim"
)

// linkedMutProgram compiles the two-thread test program and returns it with
// its linked form already built and cached.
func linkedMutProgram(t *testing.T) (*sim.Program, *sim.LinkedProgram) {
	t.Helper()
	g := mustGraph(t, memMixSrc)
	p, _ := compileParts(t, g, 2, 0)
	if p.NumThreads != 2 {
		t.Fatalf("want 2 threads, got %d", p.NumThreads)
	}
	return p, p.Linked()
}

// simpleDst reports whether the instruction's sole narrow definition is its
// Dst field (excludes nops, wide boxes, and memory writes, whose Dst means
// something else).
func simpleDst(lp *sim.LinkedProgram, in *sim.LInstr) bool {
	nd, _, _, _ := lp.LinkedDefUse(in, nil, nil, nil, nil)
	return len(nd) == 1 && nd[0] == in.Dst
}

// linkedTempRead finds an instruction on thread th whose A operand reads
// one of th's own private temps.
func linkedTempRead(t *testing.T, lp *sim.LinkedProgram, th int) int {
	t.Helper()
	code := lp.Threads[th].Code
	for pc := range code {
		in := &code[pc]
		if !simpleDst(lp, in) {
			continue
		}
		_, nu, _, _ := lp.LinkedDefUse(in, nil, nil, nil, nil)
		if len(nu) == 0 || nu[0] != in.A {
			continue
		}
		if loc, owner, ok := lp.LinkedLoc(in.A); ok && owner == th && loc.Space == sim.SpaceLocal {
			return pc
		}
	}
	t.Fatalf("thread %d has no temp-reading instruction", th)
	return -1
}

// Linked fault 1 — cross-thread frame read: after linking, thread 0 is
// rewired to read a word of thread 1's private frame. The Program code is
// untouched; only a scan of the linked stream can see it.
func TestLinkedMutationCrossThreadRead(t *testing.T) {
	p, lp := linkedMutProgram(t)
	if p.Threads[1].NumTemps == 0 {
		t.Skip("thread 1 has no temps to trespass on")
	}
	mutPC := linkedTempRead(t, lp, 0)
	lp.Threads[0].Code[mutPC].A = lp.Threads[1].TempOff

	rep := Program(p, Options{})
	if rep.Err() == nil {
		t.Fatal("cross-thread linked read not detected")
	}
	d := findDiag(t, rep, CheckRace)
	requireProvenance(t, d)
	if d.Thread != 0 || d.PC != mutPC {
		t.Fatalf("wrong provenance: got thread %d pc %d, want thread 0 pc %d: %s",
			d.Thread, d.PC, mutPC, d)
	}
}

// Linked fault 2 — padding operand: an operand resolved into the dead
// alignment gap between state regions, which no region owns.
func TestLinkedMutationPaddingOperand(t *testing.T) {
	p, lp := linkedMutProgram(t)
	pad, found := uint32(0), false
	for idx := 0; idx < lp.StateWords; idx++ {
		if _, _, ok := lp.LinkedLoc(uint32(idx)); !ok {
			pad, found = uint32(idx), true
			break
		}
	}
	if !found {
		t.Skip("layout has no padding words at all")
	}
	mutPC := linkedTempRead(t, lp, 0)
	lp.Threads[0].Code[mutPC].A = pad

	rep := Program(p, Options{})
	if rep.Err() == nil {
		t.Fatal("padding operand not detected")
	}
	d := findDiag(t, rep, CheckSchedule)
	requireProvenance(t, d)
	if d.Thread != 0 || d.PC != mutPC {
		t.Fatalf("wrong provenance: got thread %d pc %d, want thread 0 pc %d: %s",
			d.Thread, d.PC, mutPC, d)
	}
}

// Linked fault 3 — shifted shadow store: sliding a plain sink store one
// word over leaves the original sink word stale; the exactly-once
// production proof must flag it.
func TestLinkedMutationShiftedShadowWrite(t *testing.T) {
	p, lp := linkedMutProgram(t)
	mutThread, mutPC := -1, -1
	for ti := range lp.Threads {
		if p.Threads[ti].ShadowWords == 0 {
			continue
		}
		lt := &lp.Threads[ti]
		for pc := range lt.Code {
			in := &lt.Code[pc]
			if !simpleDst(lp, in) {
				continue
			}
			if loc, owner, ok := lp.LinkedLoc(in.Dst); ok && owner == ti && loc.Space == sim.SpaceShadow {
				mutThread, mutPC = ti, pc
				break
			}
		}
		if mutPC >= 0 {
			break
		}
	}
	if mutPC < 0 {
		t.Skip("no thread writes narrow shadow words")
	}
	lp.Threads[mutThread].Code[mutPC].Dst++

	rep := Program(p, Options{})
	if rep.Err() == nil {
		t.Fatal("shifted linked shadow store not detected")
	}
	d := findDiag(t, rep, CheckSchedule)
	if d.Thread != mutThread || d.Slot == "" {
		t.Fatalf("wrong provenance: %s", d)
	}
}
