package verify

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/sim"
)

// scanBatch proves the program's state layout: the region order every
// engine indexes by, that each thread's private array (the prefix [0, End)
// a multi-threaded Engine gives it) holds its own frame, and safety for a
// lane-batched engine (sim.BatchEngine).
// The batch executor stores narrow state word w of lane l at
// st[w*sim.BatchWidth+l]; its correctness rests on three static facts this
// scan establishes:
//
//   - Lane disjointness: distinct lanes never alias one state cell. With
//     l, l' < BatchWidth (NewBatchEngine rejects more lanes),
//     w*BatchWidth+l == w'*BatchWidth+l' forces w == w' and l == l', so it
//     suffices that the word regions the engine block-copies (globals,
//     immediates, per-thread frames) are disjoint and inside the
//     allocation.
//
//   - RunMasked commit gating: masked-out lanes still evaluate but must not
//     publish. Sound iff the eval phase is side-effect-free outside private
//     temps and shadow — exactly the race-freedom family scanLinked proves
//     over the linked stream, which Program runs once this layout holds.
//
//   - Lane recycling: ResetLane re-seeds the immediate column and register
//     initial values for one lane; every slot it touches must exist, or a
//     recycled lane leaks the previous session's state.
func (v *verifier) scanBatch() {
	p := v.p
	lp := p.Linked()
	// Word-region integrity, in ascending order: globals, immediates, then
	// one frame (temps ++ shadow) per thread.
	if lp.ImmOff < p.GlobalWords {
		v.diag(CheckBatch, Error, -1, -1, fmt.Sprintf("state word %d", lp.ImmOff),
			fmt.Sprintf("immediate region begins at %d, inside the %d-word global region: ResetLane's constant re-seed would clobber live registers", lp.ImmOff, p.GlobalWords))
	}
	end := lp.ImmOff + len(p.Imms)
	for t := range lp.Threads {
		lt := &lp.Threads[t]
		th := &p.Threads[t]
		if int(lt.TempOff) < end {
			v.diag(CheckBatch, Error, t, -1, fmt.Sprintf("state word %d", lt.TempOff),
				fmt.Sprintf("thread frame begins at %d, inside the previous region ending at %d: lane columns of different regions overlap", lt.TempOff, end))
		}
		if lt.ShadowOff != lt.TempOff+uint32(th.NumTemps) {
			v.diag(CheckBatch, Error, t, -1, fmt.Sprintf("state word %d", lt.ShadowOff),
				fmt.Sprintf("shadow region at %d does not abut the %d-temp region at %d: the commit block-copy would publish the wrong words", lt.ShadowOff, th.NumTemps, lt.TempOff))
		}
		if e := int(lt.ShadowOff) + th.ShadowWords; e > end {
			end = e
		}
		if fe := int(lt.ShadowOff) + th.ShadowWords; int(lt.End) < fe {
			v.diag(CheckBatch, Error, t, -1, fmt.Sprintf("state word %d", lt.End),
				fmt.Sprintf("private array ends at %d, before the thread's frame ends at %d: an Engine's thread would index past its own array", lt.End, fe))
		}
		if th.GlobalOff+th.ShadowWords > p.GlobalWords {
			v.diag(CheckBatch, Error, t, -1, fmt.Sprintf("global word %d", th.GlobalOff),
				fmt.Sprintf("commit range [%d,%d) overruns the %d-word global region: RunMasked's gated commit would write out of bounds", th.GlobalOff, th.GlobalOff+th.ShadowWords, p.GlobalWords))
		}
	}
	if end > lp.StateWords {
		v.diag(CheckBatch, Error, -1, -1, "",
			fmt.Sprintf("regions end at word %d but the state allocation is %d words: the last lane column runs off the array", end, lp.StateWords))
	}

	// ResetLane cleanliness: every word the per-lane reset re-seeds exists.
	for i := range p.Regs {
		r := &p.Regs[i]
		if last := int(r.Slot) + bitvec.WordsFor(r.Width) - 1; last >= p.GlobalWords {
			v.diag(CheckBatch, Error, -1, -1, v.wordDesc(uint32(last)),
				fmt.Sprintf("register %q init slot out of range: a recycled lane would keep the previous session's value", r.Name))
		}
	}

	v.diag(CheckBatch, Info, -1, -1, "",
		fmt.Sprintf("batch layout proven lane-disjoint for up to %d lanes (the column width): RunMasked may evaluate masked-out lanes and gate only their commit", sim.BatchWidth))
}
