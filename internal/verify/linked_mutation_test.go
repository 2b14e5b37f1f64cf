package verify

// Linked-scan mutation tests prove the verifier inspects the resolved
// state indices of the linked code the engines run: each test corrupts an
// operand into a region a tagged operand cannot name — another thread's
// frame, padding, a shifted shadow word — and asserts the scan reports the
// fault with provenance.

import (
	"testing"

	"repro/internal/sim"
)

// linkedMutProgram compiles the two-thread test program.
func linkedMutProgram(t *testing.T) *sim.Program {
	t.Helper()
	g := mustGraph(t, memMixSrc)
	p, _ := compileParts(t, g, 2, 0)
	if p.NumThreads != 2 {
		t.Fatalf("want 2 threads, got %d", p.NumThreads)
	}
	return p
}

// simpleDst reports whether the instruction's sole narrow definition is its
// Dst field (excludes nops, wide boxes, and memory writes, whose Dst means
// something else).
func simpleDst(p *sim.Program, in *sim.LInstr) bool {
	nd, _, _, _ := p.LinkedDefUse(in, nil, nil, nil, nil)
	return len(nd) == 1 && nd[0] == in.Dst
}

// linkedTempRead finds an instruction on thread th whose A operand reads
// one of th's own private temps.
func linkedTempRead(t *testing.T, p *sim.Program, th int) int {
	t.Helper()
	code := p.Threads[th].Code
	for pc := range code {
		in := &code[pc]
		if !simpleDst(p, in) {
			continue
		}
		_, nu, _, _ := p.LinkedDefUse(in, nil, nil, nil, nil)
		if len(nu) == 0 || nu[0] != in.A {
			continue
		}
		if loc, owner, ok := p.LinkedLoc(in.A); ok && owner == th && loc.Space == sim.SpaceLocal {
			return pc
		}
	}
	t.Fatalf("thread %d has no temp-reading instruction", th)
	return -1
}

// Linked fault 1 — cross-thread frame read: thread 0 is rewired to read a
// word of thread 1's private frame, which no tagged operand of thread 0 can
// name; only a scan of the resolved indices can see it.
func TestLinkedMutationCrossThreadRead(t *testing.T) {
	p := linkedMutProgram(t)
	if p.Threads[1].NumTemps == 0 {
		t.Skip("thread 1 has no temps to trespass on")
	}
	mutPC := linkedTempRead(t, p, 0)
	p.Threads[0].Code[mutPC].A = p.Threads[1].TempOff

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
	p := linkedMutProgram(t)
	pad, found := uint32(0), false
	for idx := 0; idx < p.StateWords; idx++ {
		if _, _, ok := p.LinkedLoc(uint32(idx)); !ok {
			pad, found = uint32(idx), true
			break
		}
	}
	if !found {
		t.Skip("layout has no padding words at all")
	}
	mutPC := linkedTempRead(t, p, 0)
	p.Threads[0].Code[mutPC].A = pad

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
	p := linkedMutProgram(t)
	mutThread, mutPC := -1, -1
	for ti := range p.Threads {
		if p.Threads[ti].ShadowWords == 0 {
			continue
		}
		th := &p.Threads[ti]
		for pc := range th.Code {
			in := &th.Code[pc]
			if !simpleDst(p, in) {
				continue
			}
			if loc, owner, ok := p.LinkedLoc(in.Dst); ok && owner == ti && loc.Space == sim.SpaceShadow {
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
	p.Threads[mutThread].Code[mutPC].Dst++

	rep := Program(p, Options{})
	if rep.Err() == nil {
		t.Fatal("shifted linked shadow store not detected")
	}
	d := findDiag(t, rep, CheckSchedule)
	if d.Thread != mutThread || d.Slot == "" {
		t.Fatalf("wrong provenance: %s", d)
	}
}
