package verify

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// This file is the verifier's one per-instruction scan. It walks the linked
// execution form (sim/link.go): the resolved streams every engine and the
// native emitter run, where every narrow operand is a flat unified-state
// index. Linking is strictly 1:1 and no executor runs the compiled Program
// form, so scanning the linked streams proves the invariants over exactly
// the code that executes, at the same pcs; a linker bug that rewired an
// operand into another thread's frame is caught statically.

// scanLinked runs the race/closure/schedule families over the linked form
// of the program.
func (v *verifier) scanLinked() {
	v.remoteReads = make([]map[uint32]int, len(v.p.Threads))
	for t := range v.p.Threads {
		v.remoteReads[t] = map[uint32]int{}
		v.scanLinkedThread(t)
	}
}

// stateDesc names a unified-state index for diagnostics. A global's flat
// index is its global word, so globals keep their layout name.
func (v *verifier) stateDesc(idx uint32) string {
	loc, owner, ok := v.p.LinkedLoc(idx)
	switch {
	case !ok:
		return fmt.Sprintf("state word %d (padding)", idx)
	case loc.Space == sim.SpaceGlobal:
		return v.wordDesc(idx)
	case loc.Space == sim.SpaceImm:
		return fmt.Sprintf("state word %d = imm %d", idx, loc.Idx)
	case loc.Space == sim.SpaceLocal:
		return fmt.Sprintf("state word %d = temp %d of thread %d", idx, loc.Idx, owner)
	}
	return fmt.Sprintf("state word %d = shadow %d of thread %d", idx, loc.Idx, owner)
}

// decode maps flat index idx, which thread t touches at pc, back to its
// space-relative location. An index past the state, in padding, or in
// another thread's frame is reported (the last a statically proven data
// race) and ok is false. access is "reads" or "writes". So every index a
// clean stream uses lies in the globals, the immediates or t's own frame:
// inside t's private array, the prefix [0, End) of the layout.
func (v *verifier) decode(t, pc int, idx uint32, access string) (loc sim.Loc, ok bool) {
	if int(idx) >= v.p.StateWords {
		v.diag(CheckSchedule, Error, t, pc, fmt.Sprintf("state word %d", idx),
			fmt.Sprintf("instruction %s past the %d-word state", access, v.p.StateWords))
		return loc, false
	}
	loc, owner, ok := v.p.LinkedLoc(idx)
	if !ok {
		v.diag(CheckSchedule, Error, t, pc, v.stateDesc(idx),
			fmt.Sprintf("instruction %s a padding word no region owns", access))
		return loc, false
	}
	if owner >= 0 && owner != t {
		v.diag(CheckRace, Error, t, pc, v.stateDesc(idx),
			fmt.Sprintf("instruction %s thread %d's private frame: cross-thread eval-phase race", access, owner))
		return loc, false
	}
	return loc, true
}

// scanLinkedThread walks one linked stream in order, proving def-before-use
// for private state, phase discipline for shared state, and exactly-once
// sink writes. Operands are decoded back to (space, owner) through the
// frame layout; memories keep their space-relative encoding.
func (v *verifier) scanLinkedThread(t int) {
	p := v.p
	th := &p.Threads[t]
	code := th.Code
	definedLocal := make([]bool, th.NumTemps)
	shadowWrites := make([]int, th.ShadowWords)
	localReads := make([]int, th.NumTemps)
	type defSite struct {
		pc   int
		slot uint32 // flat index of the temp
		used *int
	}
	var defSites []defSite

	var ndefs, nuses []uint32
	var mdefs, muses []sim.Loc
	for pc := range code {
		in := &code[pc]
		ndefs, nuses, mdefs, muses = p.LinkedDefUse(in, ndefs[:0], nuses[:0], mdefs[:0], muses[:0])
		v.rep.Locs += len(ndefs) + len(nuses) + len(mdefs) + len(muses)

		for _, idx := range nuses {
			loc, ok := v.decode(t, pc, idx, "reads")
			if !ok {
				continue
			}
			switch loc.Space {
			case sim.SpaceLocal:
				if !definedLocal[loc.Idx] {
					v.diag(CheckClosure, Error, t, pc, v.stateDesc(idx),
						"read of a temp with no earlier definition in this thread: the partition is not closed")
				}
				localReads[loc.Idx]++
			case sim.SpaceShadow:
				if shadowWrites[loc.Idx] == 0 {
					v.diag(CheckSchedule, Error, t, pc, v.stateDesc(idx),
						"shadow word read before this thread wrote it this cycle")
				}
			case sim.SpaceGlobal:
				if seg := v.wordSeg[loc.Idx]; seg >= 0 && seg != t {
					v.remoteReads[t][loc.Idx] += 0 // a read no entry delivers yet
				}
				switch v.wordClass[loc.Idx] {
				case clInput, clReg, clDerep:
					// Stable for the whole evaluation phase: inputs are
					// poked outside Run, registers flip only after the
					// evaluation barrier, and a derep slot is written
					// only by its owner's commit — so an eval-phase read
					// always observes the previous cycle's value.
				case clOutput:
					v.diag(CheckClosure, Error, t, pc, v.wordDesc(idx),
						"eval-phase read of an output slot: outputs are commit-only, not sources — a mid-cycle value crossed threads")
				default:
					v.diag(CheckClosure, Error, t, pc, v.wordDesc(idx),
						"eval-phase read of a padding word that no source or sink owns")
				}
			}
			// SpaceImm: in range by construction of LinkedLoc.
		}

		for _, idx := range ndefs {
			loc, ok := v.decode(t, pc, idx, "writes")
			if !ok {
				continue
			}
			switch loc.Space {
			case sim.SpaceLocal:
				if definedLocal[loc.Idx] {
					v.diag(CheckSchedule, Warning, t, pc, v.stateDesc(idx),
						"temp redefined: single-assignment form expected from the compiler")
				}
				definedLocal[loc.Idx] = true
				defSites = append(defSites, defSite{pc, idx, &localReads[loc.Idx]})
			case sim.SpaceShadow:
				shadowWrites[loc.Idx]++
			case sim.SpaceGlobal:
				v.diag(CheckRace, Error, t, pc, v.wordDesc(idx),
					"eval-phase write to a shared global word: races with concurrent readers and the owner's commit")
			case sim.SpaceImm:
				v.diag(CheckSchedule, Error, t, pc, v.stateDesc(idx),
					"write to the immutable immediate pool")
			}
		}

		// Memory state is stable during evaluation: writes are buffered and
		// only applied in the commit phase.
		for _, u := range muses {
			if int(u.Idx) >= len(p.Mems) {
				v.diag(CheckSchedule, Error, t, pc, u.String(),
					fmt.Sprintf("memory index out of range (%d mems)", len(p.Mems)))
			}
		}
		for _, d := range mdefs {
			if int(d.Idx) >= len(p.Mems) {
				v.diag(CheckSchedule, Error, t, pc, d.String(),
					fmt.Sprintf("memory index out of range (%d mems)", len(p.Mems)))
				continue
			}
			// Record the writer of the column's memory (the last one whose
			// first column is at or below it) for the cross-thread check.
			m := sort.SearchInts(v.mems, int(d.Idx)+1) - 1
			if ws := v.memWriters[m]; len(ws) == 0 || ws[len(ws)-1] != t {
				v.memWriters[m] = append(ws, t)
			}
		}
	}

	// Exactly-once sink writes: every shadow word the commit memcpy
	// publishes must be produced exactly once per cycle.
	for i, n := range shadowWrites {
		slot := v.wordDesc(uint32(th.GlobalOff + i))
		switch {
		case n == 0:
			v.diag(CheckSchedule, Error, t, -1, slot,
				"sink shadow word never written: the commit publishes a stale value every cycle")
		case n > 1:
			v.diag(CheckSchedule, Error, t, -1, slot,
				fmt.Sprintf("sink shadow word written %d times per cycle: drivers conflict", n))
		}
	}
	// Dead stores: a defined temp nobody reads is wasted eval work (and
	// usually a symptom of a miscompiled use). Warning only — OptLevel 0
	// programs legitimately keep some.
	for _, ds := range defSites {
		if *ds.used == 0 {
			v.diag(CheckSchedule, Warning, t, ds.pc, v.stateDesc(ds.slot), "dead store: destination is never read by this thread")
		}
	}
}
