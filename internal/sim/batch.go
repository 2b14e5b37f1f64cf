package sim

import (
	"fmt"
	"unsafe"

	"repro/internal/bitvec"
)

// This file implements the lane-batched execution engine: N independent
// simulations ("lanes") of the same linked program advanced together, so
// each linked instruction is fetched and dispatched once and then executed
// across all lanes in a tight inner loop (batchexec.go, generated from
// internal/optable). It is the Parendi-style answer to the service's
// 1000-sessions-one-program workload: the per-instruction interpreter
// overhead (stream walk, opcode switch, operand decode) that a private
// Engine pays per session is paid once per batch group.
//
// State is laid out structure-of-arrays: one flat []uint64 of
// StateWords×BatchWidth words, where word w of lane l lives at
// st[w*BatchWidth+l]. Columns (all lanes of one state word) are contiguous
// and two whole cache lines, so the per-instruction lane statements are a
// sequential walk the hardware prefetches, no column shares a line with a
// neighbouring word's, and the commit memcpy of the two-phase protocol
// becomes one contiguous block copy across every lane at once.
//
// Every operation vectorizes over lanes (values wider than 64 bits are
// already word-level code, lower.go); memories stay per lane, and the memory
// operations run lane by lane under the step mask.
//
// Each lane is also an ordinary strided globalState over st (stride
// BatchWidth, offset the lane index), so a lane's ports, reset, snapshot and
// state hash run the same accessors an Engine's view does.
//
// Only private-temp programs are supported: the eval phase then provably
// writes nothing but thread-private temps and shadows (the RepCut
// race-freedom invariant, re-proven by internal/verify), which is what
// makes it sound to evaluate every lane — including lanes that must not
// advance this call — and gate only the commit on the mask.

// BatchWidth is the one SoA column width: every BatchEngine lays word w of
// lane l at st[w*BatchWidth+l] and runs the executor unrolled for exactly
// this many lanes (batchexec.go), so an engine's lane count is occupancy
// capacity inside one column, 1 to BatchWidth. internal/verify proves the
// layout lane-disjoint against it.
const BatchWidth = 16

// col16 is one SoA column: the BatchWidth lanes' values of one state word,
// two cache lines.
type col16 = [BatchWidth]uint64

// sel is a branchless two-way select: x where the condition mask s is all
// ones, y where it is zero.
func sel(s, x, y uint64) uint64 { return x&s | y&^s }

// divLane is x/0 = 0 without a branch: divide by (b|1) when b is zero, then
// squash the bogus quotient with z-1 (= ^0 iff b != 0).
func divLane(a, b, m uint64) uint64 {
	z := b2u(b == 0)
	return (a / (b | z)) & (z - 1) & m
}

// remLane is x%0 = x, same guard as divLane with a fallback select.
func remLane(a, b, m uint64) uint64 {
	z := b2u(b == 0)
	return (a%(b|z)&(z-1) | a&-z) & m
}

// BatchEngine executes one linked program across many independent lanes.
// It is not safe for concurrent use; callers (internal/service batch
// groups) serialize access externally.
type BatchEngine struct {
	prog  *Program
	lp    *LinkedProgram
	lanes int

	// st is the SoA state: word w, lane l at st[w*BatchWidth+l].
	st []uint64

	// Per-lane state views: laneGS[l] addresses lane l's words in st
	// (stride BatchWidth) and holds its memories; laneTC[l] holds its
	// per-thread deferred memory-write buffers.
	laneGS []*globalState
	laneTC [][]*threadCtx

	cycles []uint64

	// fullMask is the all-lanes mask Run uses when the caller passes nil.
	fullMask []bool

	// maskRuns is RunMasked's reusable scratch for the active-lane runs of
	// a partial mask ({start, length} pairs of consecutive selected lanes).
	maskRuns [][2]int
}

// NewBatchEngine creates a lane-batched engine over the program's linked
// form and resets every lane to power-on state.
func NewBatchEngine(p *Program, lanes int) (*BatchEngine, error) {
	if lanes < 1 || lanes > BatchWidth {
		return nil, fmt.Errorf("sim: batch engine needs 1 <= lanes <= %d, got %d", BatchWidth, lanes)
	}
	lp := p.Linked()
	e := &BatchEngine{
		prog:     p,
		lp:       lp,
		lanes:    lanes,
		cycles:   make([]uint64, lanes),
		fullMask: make([]bool, lanes),
	}
	e.st = make([]uint64, lp.StateWords*BatchWidth)
	for l := 0; l < lanes; l++ {
		e.fullMask[l] = true
		e.laneGS = append(e.laneGS, newGlobalState(p, e.st, BatchWidth, l))
		tcs := make([]*threadCtx, len(p.Threads))
		for t := range p.Threads {
			tcs[t] = newThreadCtx(&p.Threads[t], nil)
		}
		e.laneTC = append(e.laneTC, tcs)
	}
	e.Reset()
	return e, nil
}

// Program returns the engine's compiled program.
func (e *BatchEngine) Program() *Program { return e.prog }

// Lanes returns the configured lane count.
func (e *BatchEngine) Lanes() int { return e.lanes }

// Cycles returns the number of cycles lane l has simulated since its last
// reset.
func (e *BatchEngine) Cycles(lane int) uint64 { return e.cycles[lane] }

// Reset restores every lane to power-on state.
func (e *BatchEngine) Reset() {
	for l := 0; l < e.lanes; l++ {
		e.ResetLane(l)
	}
}

// ResetLane restores one lane to power-on state (registers to their init
// values, memories, outputs, and inputs to zero) without disturbing any
// other lane. The service batch tier calls it when recycling a dead
// session's lane for a new one.
func (e *BatchEngine) ResetLane(lane int) {
	resetState(e.lp, e.laneGS[lane], e.laneTC[lane])
	e.cycles[lane] = 0
}

// checkLane validates a lane index.
func (e *BatchEngine) checkLane(lane int) error {
	if lane < 0 || lane >= e.lanes {
		return fmt.Errorf("sim: lane %d out of range [0,%d)", lane, e.lanes)
	}
	return nil
}

// Poke sets a narrow input port on one lane.
func (e *BatchEngine) Poke(lane int, name string, v uint64) error {
	if err := e.checkLane(lane); err != nil {
		return err
	}
	return e.laneGS[lane].pokeInput(e.prog, name, v)
}

// PokeVec sets an input port of any width on one lane.
func (e *BatchEngine) PokeVec(lane int, name string, v bitvec.Vec) error {
	if err := e.checkLane(lane); err != nil {
		return err
	}
	return e.laneGS[lane].pokeInputVec(e.prog, name, v)
}

// Peek reads a narrow output port of one lane.
func (e *BatchEngine) Peek(lane int, name string) (uint64, error) {
	if err := e.checkLane(lane); err != nil {
		return 0, err
	}
	return e.laneGS[lane].peekOutput(e.prog, name)
}

// PeekVec reads an output port of any width on one lane.
func (e *BatchEngine) PeekVec(lane int, name string) (bitvec.Vec, error) {
	if err := e.checkLane(lane); err != nil {
		return bitvec.Vec{}, err
	}
	return e.laneGS[lane].peekOutputVec(e.prog, name)
}

// PeekReg reads a register's current value on one lane.
func (e *BatchEngine) PeekReg(lane int, name string) (bitvec.Vec, error) {
	if err := e.checkLane(lane); err != nil {
		return bitvec.Vec{}, err
	}
	return e.laneGS[lane].peekRegVec(e.prog, name)
}

// PeekMemVec reads one memory word of any element width on one lane.
func (e *BatchEngine) PeekMemVec(lane int, name string, addr int) (bitvec.Vec, error) {
	if err := e.checkLane(lane); err != nil {
		return bitvec.Vec{}, err
	}
	return e.laneGS[lane].peekMemVec(e.prog, name, addr)
}

// Run advances every lane by n cycles.
func (e *BatchEngine) Run(n int) { e.RunMasked(n, nil) }

// RunMasked advances the lanes selected by mask (nil = all lanes) by n
// cycles. Unselected lanes cost one branch in the per-lane memory loops and
// nothing in the commit: their architectural state (globals and memories)
// is bit-for-bit untouched, because under the private-temp model the eval
// phase writes only temps and shadows, and the commit is gated on the mask.
// That is what lets batch groups hold lanes at different cycle frontiers.
func (e *BatchEngine) RunMasked(n int, mask []bool) {
	if n <= 0 {
		return
	}
	if mask == nil {
		mask = e.fullMask
	}
	full := true
	any := false
	for l := 0; l < e.lanes; l++ {
		if mask[l] {
			any = true
		} else {
			full = false
		}
	}
	if !any {
		return
	}
	// The commit copies contiguous runs of selected lanes; lanes are
	// handed out densely, so a typical partial mask is one or two runs and
	// the masked commit stays near memmove speed.
	runs := e.maskRuns[:0]
	if !full {
		for l := 0; l < e.lanes; {
			if !mask[l] {
				l++
				continue
			}
			s := l
			for l < e.lanes && mask[l] {
				l++
			}
			runs = append(runs, [2]int{s, l - s})
		}
		e.maskRuns = runs
	}
	for c := 0; c < n; c++ {
		for t := range e.prog.Threads {
			e.evalThreadBatch(t, mask)
		}
		for t := range e.prog.Threads {
			e.updateBatch(t, mask, full, runs)
		}
	}
	for l := 0; l < e.lanes; l++ {
		if mask[l] {
			e.cycles[l] += uint64(n)
		}
	}
}

// updateBatch publishes thread t's shadow state for the masked lanes: the
// commit is one contiguous block copy across all lanes when the mask is
// full (the common case), per-word copies of the mask's lane runs
// otherwise, then the deferred memory writes lane by lane.
func (e *BatchEngine) updateBatch(t int, mask []bool, full bool, runs [][2]int) {
	th := &e.prog.Threads[t]
	lt := &e.lp.Threads[t]
	gOff, shOff, sw := th.GlobalOff, int(lt.ShadowOff), th.ShadowWords
	if sw > 0 {
		if full {
			copy(e.st[gOff*BatchWidth:(gOff+sw)*BatchWidth], e.st[shOff*BatchWidth:(shOff+sw)*BatchWidth])
		} else {
			for w := 0; w < sw; w++ {
				dst := e.st[(gOff+w)*BatchWidth:]
				src := e.st[(shOff+w)*BatchWidth:]
				for _, r := range runs {
					copy(dst[r[0]:r[0]+r[1]], src[r[0]:r[0]+r[1]])
				}
			}
		}
	}
	for l, on := range mask {
		if !on {
			continue
		}
		gs := e.laneGS[l]
		tc := e.laneTC[l][t]
		for _, w := range tc.memBuf {
			m := gs.mems[w.mem]
			if w.addr < uint64(len(m)) {
				m[w.addr] = w.data
			}
		}
		tc.memBuf = tc.memBuf[:0]
	}
}

// StateBytes estimates the engine's resident mutable state: the SoA array
// plus every lane's memories.
func (e *BatchEngine) StateBytes() int64 {
	n := int64(len(e.st)) * 8
	n += int64(e.lanes) * e.prog.memBytes()
	n += int64(unsafe.Sizeof(BatchEngine{}))
	return n
}
