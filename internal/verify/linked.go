package verify

import (
	"fmt"

	"repro/internal/sim"
)

// This file extends the verifier to the linked execution form (sim/link.go):
// the resolved instruction streams every engine actually runs. The
// base scan proves the invariants over the compiled Program; this scan
// re-proves them over the LinkedProgram, where every operand is a flat
// unified-state index, so a linker bug that rewired an operand
// into another thread's frame (a race the RefTag encoding made impossible)
// is caught statically.

// scanLinked re-runs the race/closure/schedule families over the linked
// form of the program.
func (v *verifier) scanLinked() {
	lp := v.p.Linked()
	if len(lp.Threads) != len(v.p.Threads) {
		v.diag(CheckSchedule, Error, -1, -1, "",
			fmt.Sprintf("linked form has %d threads, program has %d", len(lp.Threads), len(v.p.Threads)))
		return
	}
	for t := range lp.Threads {
		v.scanLinkedThread(lp, t)
	}
}

// linkedDesc names a unified-state index for diagnostics.
func (v *verifier) linkedDesc(lp *sim.LinkedProgram, idx uint32) string {
	loc, owner, ok := lp.LinkedLoc(idx)
	if !ok {
		return fmt.Sprintf("state word %d (padding)", idx)
	}
	switch loc.Space {
	case sim.SpaceGlobal:
		return fmt.Sprintf("state word %d = %s", idx, v.wordDesc(loc.Idx))
	case sim.SpaceImm:
		return fmt.Sprintf("state word %d = imm %d", idx, loc.Idx)
	case sim.SpaceLocal:
		return fmt.Sprintf("state word %d = temp %d of thread %d", idx, loc.Idx, owner)
	default: // SpaceShadow
		return fmt.Sprintf("state word %d = shadow %d of thread %d", idx, loc.Idx, owner)
	}
}

// scanLinkedThread walks one linked stream in order. Narrow operands are
// decoded back to (space, owner) through the frame layout; any operand that
// lands in padding or in another thread's frame is an error — the former a
// broken layout, the latter a statically proven data race. Wide and memory
// locations keep their space-relative encoding and get the same checks as
// the base scan.
func (v *verifier) scanLinkedThread(lp *sim.LinkedProgram, t int) {
	p := v.p
	th := &p.Threads[t]
	code := lp.Threads[t].Code
	definedLocal := make([]bool, th.NumTemps)
	definedWide := make([]bool, th.NumWideTemps)
	shadowWrites := make([]int, th.ShadowWords)
	wideShadowWrites := make([]int, len(th.WideShadowSlots))

	var ndefs, nuses []uint32
	var wdefs, wuses []sim.Loc
	for pc := range code {
		in := &code[pc]
		v.rep.Instrs++
		if in.Op == sim.OpWide && int(in.Aux) >= len(lp.WideNodes) {
			v.diag(CheckSchedule, Error, t, pc, fmt.Sprintf("linked wide node %d", in.Aux),
				fmt.Sprintf("wide-node index out of range (%d linked nodes)", len(lp.WideNodes)))
			continue
		}
		ndefs, nuses, wdefs, wuses = lp.LinkedDefUse(in, ndefs[:0], nuses[:0], wdefs[:0], wuses[:0])
		v.rep.Locs += len(ndefs) + len(nuses) + len(wdefs) + len(wuses)

		for _, idx := range nuses {
			if int(idx) >= lp.StateWords {
				v.diag(CheckSchedule, Error, t, pc, fmt.Sprintf("state word %d", idx),
					fmt.Sprintf("linked operand out of range (%d state words)", lp.StateWords))
				continue
			}
			loc, owner, ok := lp.LinkedLoc(idx)
			if !ok {
				v.diag(CheckSchedule, Error, t, pc, v.linkedDesc(lp, idx),
					"linked operand reads a padding word no region owns")
				continue
			}
			if owner >= 0 && owner != t {
				v.diag(CheckRace, Error, t, pc, v.linkedDesc(lp, idx),
					fmt.Sprintf("linked operand reads thread %d's private frame: cross-thread eval-phase race", owner))
				continue
			}
			switch loc.Space {
			case sim.SpaceLocal:
				if !definedLocal[loc.Idx] {
					v.diag(CheckClosure, Error, t, pc, v.linkedDesc(lp, idx),
						"linked read of a temp with no earlier definition in this thread")
				}
			case sim.SpaceShadow:
				if shadowWrites[loc.Idx] == 0 {
					v.diag(CheckSchedule, Error, t, pc, v.linkedDesc(lp, idx),
						"linked read of a shadow word before this thread wrote it this cycle")
				}
			case sim.SpaceGlobal:
				if p.Shared {
					continue
				}
				switch v.wordClass[loc.Idx] {
				case clInput, clReg, clDerep:
				case clOutput:
					v.diag(CheckClosure, Error, t, pc, v.linkedDesc(lp, idx),
						"linked eval-phase read of an output slot: outputs are commit-only")
				default:
					v.diag(CheckClosure, Error, t, pc, v.linkedDesc(lp, idx),
						"linked eval-phase read of a padding word that no source or sink owns")
				}
			case sim.SpaceImm:
				// In range by construction of LinkedLoc.
			}
		}

		for _, idx := range ndefs {
			if int(idx) >= lp.StateWords {
				v.diag(CheckSchedule, Error, t, pc, fmt.Sprintf("state word %d", idx),
					fmt.Sprintf("linked destination out of range (%d state words)", lp.StateWords))
				continue
			}
			loc, owner, ok := lp.LinkedLoc(idx)
			if !ok {
				v.diag(CheckSchedule, Error, t, pc, v.linkedDesc(lp, idx),
					"linked destination is a padding word no region owns")
				continue
			}
			if owner >= 0 && owner != t {
				v.diag(CheckRace, Error, t, pc, v.linkedDesc(lp, idx),
					fmt.Sprintf("linked destination is in thread %d's private frame: cross-thread eval-phase race", owner))
				continue
			}
			switch loc.Space {
			case sim.SpaceLocal:
				definedLocal[loc.Idx] = true
			case sim.SpaceShadow:
				shadowWrites[loc.Idx]++
			case sim.SpaceGlobal:
				if !p.Shared {
					v.diag(CheckRace, Error, t, pc, v.linkedDesc(lp, idx),
						"linked eval-phase write to a shared global word: races with concurrent readers and the owner's commit")
				}
			case sim.SpaceImm:
				v.diag(CheckSchedule, Error, t, pc, v.linkedDesc(lp, idx),
					"linked write to the immutable immediate copy")
			}
		}

		// Wide and memory locations are unaffected by linking's narrow
		// relayout; re-prove the same invariants the base scan does.
		for _, u := range wuses {
			switch u.Space {
			case sim.SpaceWideLocal:
				if int(u.Idx) >= th.NumWideTemps {
					v.diag(CheckSchedule, Error, t, pc, u.String(),
						fmt.Sprintf("wide temp out of range (%d wide temps)", th.NumWideTemps))
					continue
				}
				if !definedWide[u.Idx] {
					v.diag(CheckClosure, Error, t, pc, u.String(),
						"linked read of a wide temp with no earlier definition in this thread")
				}
			case sim.SpaceWideGlobal:
				if int(u.Idx) >= p.GlobalWide {
					v.diag(CheckSchedule, Error, t, pc, u.String(),
						fmt.Sprintf("wide-global slot out of range (%d slots)", p.GlobalWide))
					continue
				}
				if p.Shared {
					continue
				}
				switch v.wideClass[u.Idx] {
				case clInput, clReg:
				default:
					v.diag(CheckClosure, Error, t, pc, v.wideDesc(u.Idx),
						"linked eval-phase read of a non-source wide-global slot")
				}
			case sim.SpaceWideImm:
				if int(u.Idx) >= len(p.WideImms) {
					v.diag(CheckSchedule, Error, t, pc, u.String(),
						fmt.Sprintf("wide immediate out of range (%d wide imms)", len(p.WideImms)))
				}
			case sim.SpaceWideShadow:
				if int(u.Idx) >= len(wideShadowWrites) {
					v.diag(CheckSchedule, Error, t, pc, u.String(),
						fmt.Sprintf("wide shadow index out of range (%d slots)", len(wideShadowWrites)))
					continue
				}
				if wideShadowWrites[u.Idx] == 0 {
					v.diag(CheckSchedule, Error, t, pc, u.String(),
						"linked read of a wide shadow slot before this thread wrote it this cycle")
				}
			case sim.SpaceMem:
				if int(u.Idx) >= len(p.Mems) {
					v.diag(CheckSchedule, Error, t, pc, u.String(),
						fmt.Sprintf("memory index out of range (%d mems)", len(p.Mems)))
				}
			}
		}
		for _, d := range wdefs {
			switch d.Space {
			case sim.SpaceWideLocal:
				if int(d.Idx) >= th.NumWideTemps {
					v.diag(CheckSchedule, Error, t, pc, d.String(),
						fmt.Sprintf("wide temp destination out of range (%d wide temps)", th.NumWideTemps))
					continue
				}
				definedWide[d.Idx] = true
			case sim.SpaceWideShadow:
				if int(d.Idx) >= len(wideShadowWrites) {
					v.diag(CheckSchedule, Error, t, pc, d.String(),
						fmt.Sprintf("wide shadow destination out of range (%d slots)", len(wideShadowWrites)))
					continue
				}
				wideShadowWrites[d.Idx]++
			case sim.SpaceWideGlobal:
				if int(d.Idx) >= p.GlobalWide {
					v.diag(CheckSchedule, Error, t, pc, d.String(),
						fmt.Sprintf("wide-global destination out of range (%d slots)", p.GlobalWide))
					continue
				}
				if !p.Shared {
					v.diag(CheckRace, Error, t, pc, v.wideDesc(d.Idx),
						"linked eval-phase write to a wide-global slot")
				}
			case sim.SpaceMem:
				if int(d.Idx) >= len(p.Mems) {
					v.diag(CheckSchedule, Error, t, pc, d.String(),
						fmt.Sprintf("memory index out of range (%d mems)", len(p.Mems)))
				}
			}
		}
	}

	// Linking must preserve exactly-once sink production: every shadow word
	// the commit memcpy publishes is still written exactly once per cycle.
	for i, n := range shadowWrites {
		slot := v.wordDesc(uint32(th.GlobalOff + i))
		switch {
		case n == 0:
			v.diag(CheckSchedule, Error, t, -1, slot,
				"linked code never writes this sink shadow word: the commit publishes a stale value")
		case n > 1:
			v.diag(CheckSchedule, Error, t, -1, slot,
				fmt.Sprintf("linked code writes this sink shadow word %d times per cycle", n))
		}
	}
	for i, n := range wideShadowWrites {
		slot := fmt.Sprintf("wide shadow %d", i)
		if int(th.WideShadowSlots[i]) < p.GlobalWide {
			slot = v.wideDesc(th.WideShadowSlots[i])
		}
		switch {
		case n == 0:
			v.diag(CheckSchedule, Error, t, -1, slot,
				"linked code never writes this wide sink")
		case n > 1:
			v.diag(CheckSchedule, Error, t, -1, slot,
				fmt.Sprintf("linked code writes this wide sink %d times per cycle", n))
		}
	}
}
