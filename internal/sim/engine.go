package sim

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/bitvec"
)

// Engine executes a compiled Program. One Engine holds the global state
// (registers, memories, ports) and per-thread contexts; Run advances the
// simulation by whole cycles.
//
// With a single thread the engine evaluates into the thread's shadow and
// commits it in place — the ESSENT-style serial simulator, no goroutines
// and no barrier.
//
// With several threads it keeps two complete views of the state and
// synchronises once per cycle (a bulk-synchronous superstep; the paper's
// §5.1 runtime needs two barriers, see DESIGN.md §5):
//
//	cycle c:  evaluate over view c mod 2 (into private shadows)
//	          → publish own shadow and memory writes into the other view
//	          → barrier.
//
// During cycle c nobody reads the other view and nobody writes the current
// view's globals or memories, so the publish needs no barrier of its own.
type Engine struct {
	prog *Program
	lp   *LinkedProgram

	// views holds one state view for a single-threaded program and two
	// for a multi-threaded one; cur indexes the view the next cycle
	// evaluates over, which is also the one Peek, Snapshot and StateHash
	// read. Poke, Reset and RestoreSnapshot write every view.
	views []*view
	cur   int

	// sharedMem[m] marks memory m as written by more than one thread: the
	// barrier's last arriver commits it (commitShared), not its writers.
	sharedMem []bool

	// skipCatchUp is the planted protocol defect (PlantSkipCatchUp).
	skipCatchUp bool

	cycles        uint64
	instrsRetired uint64
}

// view is one complete copy of the simulation state plus the per-thread
// contexts that evaluate over it. A context's memory-write buffers hold the
// writes of the last cycle evaluated over its view, so the other view's
// buffers are the previous cycle's writes — the catch-up set of publish.
type view struct {
	// state is the unified [globals|imms|frames] word array (link.go);
	// gs views it and every context's temps/shadow alias it.
	state []uint64
	gs    *globalState
	tcs   []*threadCtx
	// native, when non-nil, replaces each thread's eval phase with a
	// compiled kernel over state (InstallNative, native.go).
	native []nativeThread
}

// NewEngine creates an engine over the program's linked execution form and
// resets it to power-on state. The linked form is built once per Program
// and shared across engines.
func NewEngine(p *Program) *Engine {
	lp := p.Linked()
	e := &Engine{prog: p, lp: lp, sharedMem: sharedMems(p)}
	for range p.stateViews() {
		e.views = append(e.views, newView(p, lp))
	}
	e.Reset()
	return e
}

// NewInterpEngine returns NewEngine(p).
//
// Deprecated: the closure interpreter it used to select is deleted. The
// name survives only because the benchmark module (bench/layers.go, which
// is frozen between benchmark changes) still calls it; the next change to
// bench/ deletes it together with its sim.interp.rocket-1t row.
func NewInterpEngine(p *Program) *Engine { return NewEngine(p) }

// newView allocates one state view; its owner resets it to power-on state.
func newView(p *Program, lp *LinkedProgram) *view {
	v := &view{state: make([]uint64, lp.StateWords)}
	v.gs = newGlobalState(p, v.state, 1, 0)
	for t := range p.Threads {
		th := &p.Threads[t]
		lt := &lp.Threads[t]
		frame := v.state[lt.TempOff : int(lt.TempOff)+th.NumTemps+th.ShadowWords]
		v.tcs = append(v.tcs, newThreadCtx(th, frame))
	}
	return v
}

// sharedMems marks the memories with write ports in more than one thread.
func sharedMems(p *Program) []bool {
	shared := make([]bool, len(p.Mems))
	writer := make([]int, len(p.Mems)) // 1 + the last writing thread seen
	for t := range p.Threads {
		for i := range p.Threads[t].Code {
			if in := &p.Threads[t].Code[i]; in.Op == OpMemWr {
				m := in.Aux
				shared[m] = shared[m] || (writer[m] != 0 && writer[m] != t+1)
				writer[m] = t + 1
			}
		}
	}
	return shared
}

// evalThread runs one eval phase of thread t over view v: the native
// kernel when one is installed, the linked stream otherwise. The thread's
// write buffers are emptied here, not after publishing, because the other
// view's publish still needs them for one more cycle.
func (e *Engine) evalThread(t int, v *view) {
	tc := v.tcs[t]
	tc.memBuf = tc.memBuf[:0]
	if v.native != nil {
		nt := &v.native[t]
		nt.fn(v.state, v.gs.mems, nt.memwr)
		return
	}
	evalLinked(e.lp.Threads[t].Code, v.state, v.gs, tc)
}

// Program returns the engine's compiled program.
func (e *Engine) Program() *Program { return e.prog }

// Cycles returns the number of cycles simulated since the last Reset.
func (e *Engine) Cycles() uint64 { return e.cycles }

// InstrsRetired returns the total interpreter instructions executed since
// the last Reset (aggregated over threads).
func (e *Engine) InstrsRetired() uint64 { return e.instrsRetired }

// Reset restores power-on state: registers to their init values, memories
// and outputs to zero.
func (e *Engine) Reset() {
	for _, v := range e.views {
		resetState(e.lp, v.gs, v.tcs)
	}
	e.cycles = 0
	e.instrsRetired = 0
}

// resetState restores one state view to power-on values — every word zero
// except the immediates and the register inits, memories zero — and drops
// its contexts' buffered memory writes. Engine views and batch lanes share
// it.
func resetState(lp *LinkedProgram, gs *globalState, tcs []*threadCtx) {
	p := lp.prog
	for i := 0; i < lp.StateWords; i++ {
		*gs.at(uint32(i)) = 0
	}
	for i, v := range p.Imms {
		*gs.at(uint32(lp.ImmOff + i)) = v
	}
	for _, m := range gs.mems {
		clear(m)
	}
	for _, r := range p.Regs {
		gs.setVec(r.Slot, r.Width, r.Init)
	}
	dropWrites(tcs)
}

// dropWrites empties the contexts' memory-write buffers, so that a publish
// after a reset or restore has nothing to catch up on.
func dropWrites(tcs []*threadCtx) {
	for _, tc := range tcs {
		tc.memBuf = tc.memBuf[:0]
	}
}

// PokeInput sets a narrow input port (values wider than 64 bits need
// PokeInputVec). The value is masked to the port width.
func (e *Engine) PokeInput(name string, v uint64) error {
	for _, vw := range e.views {
		if err := vw.gs.pokeInput(e.prog, name, v); err != nil {
			return err
		}
	}
	return nil
}

// PokeInputVec sets an input port of any width.
func (e *Engine) PokeInputVec(name string, v bitvec.Vec) error {
	for _, vw := range e.views {
		if err := vw.gs.pokeInputVec(e.prog, name, v); err != nil {
			return err
		}
	}
	return nil
}

// PeekOutput reads a narrow output port.
func (e *Engine) PeekOutput(name string) (uint64, error) {
	return e.gs().peekOutput(e.prog, name)
}

// PeekOutputVec reads an output port of any width.
func (e *Engine) PeekOutputVec(name string) (bitvec.Vec, error) {
	return e.gs().peekOutputVec(e.prog, name)
}

// PeekReg reads a register's current value as a bit vector.
func (e *Engine) PeekReg(name string) (bitvec.Vec, error) {
	return e.gs().peekRegVec(e.prog, name)
}

// PeekMem reads one element of a memory at most 64 bits wide.
func (e *Engine) PeekMem(name string, addr int) (uint64, error) {
	mi, m, ok := e.prog.Mem(name)
	if !ok {
		return 0, fmt.Errorf("sim: no memory %q", name)
	}
	if addr < 0 || addr >= m.Depth {
		return 0, fmt.Errorf("sim: mem %q address %d out of range", name, addr)
	}
	if m.Width > 64 {
		return 0, fmt.Errorf("sim: mem %q is %d bits wide; use PeekMemVec", name, m.Width)
	}
	return e.gs().mems[mi][addr], nil
}

// PeekMemVec reads one memory element of any width as a bit vector.
func (e *Engine) PeekMemVec(name string, addr int) (bitvec.Vec, error) {
	return e.gs().peekMemVec(e.prog, name, addr)
}

// gs is the current view's global state.
func (e *Engine) gs() *globalState { return e.views[e.cur].gs }

// other is the view the next cycle publishes into and the last cycle
// evaluated over; on a single-view engine, the current view itself.
func (e *Engine) other() *view { return e.views[len(e.views)-1-e.cur] }

// publish commits what thread t evaluated over view from into view to: one
// contiguous copy of the shadow (the memcpy of §5.1) and the buffered
// memory writes. With one view (from == to) that is the in-place update of
// the serial simulator. With two, to last held the state of one cycle
// earlier, so the thread first re-applies the writes it made in the
// previous cycle (still buffered in to's context) and then this cycle's;
// memories with writers in several threads are left to commitShared.
func (e *Engine) publish(t int, from, to *view) {
	th := &e.prog.Threads[t]
	tc := from.tcs[t]
	copy(to.state[th.GlobalOff:th.GlobalOff+th.ShadowWords], tc.shadow)
	if to != from && !e.skipCatchUp {
		e.applyWrites(to.tcs[t], to.gs, false)
	}
	e.applyWrites(tc, to.gs, false)
}

// PlantSkipCatchUp plants the double-buffering defect that mutation tests
// (internal/difftest) must catch: publish no longer re-applies the previous
// cycle's memory writes, so each view misses every other cycle's writes.
func (e *Engine) PlantSkipCatchUp() { e.skipCatchUp = true }

// applyWrites stores tc's buffered memory writes of single-writer
// (shared == false) or multi-writer (shared == true) memories into gs.
func (e *Engine) applyWrites(tc *threadCtx, gs *globalState, shared bool) {
	for _, w := range tc.memBuf {
		if m := gs.mems[w.mem]; w.addr < uint64(len(m)) && e.sharedMem[w.mem] == shared {
			m[w.addr] = w.data
		}
	}
}

// commitShared is publish for the memories written by several threads. The
// barrier's last arriver runs it while the others wait: the previous
// cycle's writes and then this cycle's, each in thread order, so a later
// cycle always overwrites an earlier one and two ports hitting one address
// in the same cycle resolve the same way on every run.
func (e *Engine) commitShared(from, to *view) {
	for _, v := range [2]*view{to, from} {
		for _, tc := range v.tcs {
			e.applyWrites(tc, to.gs, true)
		}
	}
}

// Run simulates n cycles.
func (e *Engine) Run(n int) {
	e.run(n, nil)
}

// PhaseSample is the per-thread timing of one simulated cycle, mirroring
// the rdtsc-based profile of §6.5 (Figures 2 and 12). The engine crosses
// one barrier per cycle, after the publish, so EvalBarrier is the wait at
// that barrier and UpdateBarrier is always zero; the field stays because
// consumers sum all four.
type PhaseSample struct {
	Eval          time.Duration // evaluation phase
	EvalBarrier   time.Duration // waiting at the cycle's barrier
	Update        time.Duration // publishing the shadow and memory writes
	UpdateBarrier time.Duration // always 0: publishing needs no barrier
}

// RunProfiled simulates n cycles recording per-cycle, per-thread phase
// timings. Each thread writes only its own column of the result.
func (e *Engine) RunProfiled(n int) [][]PhaseSample {
	out := make([][]PhaseSample, max(n, 0))
	for c := range out {
		out[c] = make([]PhaseSample, e.prog.NumThreads)
	}
	e.run(n, out)
	return out
}

// run simulates n cycles, filling prof (when non-nil) with phase timings.
func (e *Engine) run(n int, prof [][]PhaseSample) {
	if n <= 0 {
		return
	}
	p := e.prog
	if p.NumThreads == 1 {
		e.runThread(0, n, nil, prof)
	} else {
		bar := NewBarrier(p.NumThreads)
		if slices.Contains(e.sharedMem, true) {
			// Crossings are totally ordered, so the closure can keep
			// its own parity.
			cur := e.cur
			bar.Last = func() {
				e.commitShared(e.views[cur], e.views[cur^1])
				cur ^= 1
			}
		}
		var wg sync.WaitGroup
		for t := 0; t < p.NumThreads; t++ {
			wg.Add(1)
			go func(t int) {
				defer wg.Done()
				e.runThread(t, n, bar, prof)
			}(t)
		}
		wg.Wait()
		e.cur = (e.cur + n) & 1
	}
	e.cycles += uint64(n)
	e.instrsRetired += uint64(p.TotalInstrs()) * uint64(n)
}

// runThread is thread t's cycle loop: evaluate over the current view,
// publish into the next, meet the others at the barrier, swap views. A nil
// bar is the single-threaded engine, whose one view is both.
func (e *Engine) runThread(t, n int, bar *Barrier, prof [][]PhaseSample) {
	from, to := e.views[e.cur], e.other()
	var crossing uint32
	var t0, t1, t2 time.Time
	for c := 0; c < n; c++ {
		if prof != nil {
			t0 = time.Now()
		}
		e.evalThread(t, from)
		if prof != nil {
			t1 = time.Now()
		}
		e.publish(t, from, to)
		if prof != nil {
			t2 = time.Now()
		}
		if bar != nil {
			bar.Wait(&crossing)
		}
		if prof != nil {
			prof[c][t] = PhaseSample{Eval: t1.Sub(t0), Update: t2.Sub(t1), EvalBarrier: time.Since(t2)}
		}
		from, to = to, from
	}
}
