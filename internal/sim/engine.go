package sim

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/bitvec"
)

// Engine executes a compiled Program. Run advances the simulation by whole
// cycles.
//
// With a single thread the engine evaluates into the thread's shadow and
// commits it in place — the ESSENT-style serial simulator, no goroutines
// and no barrier.
//
// With several threads every thread owns a private state array: the prefix
// of the unified layout (link.go) holding the globals, the immediates and
// its own frame, which is every index its code uses. Threads share nothing
// during evaluation but the memories, and each cycle is one bulk-synchronous
// superstep with one barrier (DESIGN.md §4 "Runtime protocol"):
//
//	cycle c:  evaluate over the own array and memory view c mod 2
//	          → commit the shadow into the own segment
//	          → pack the words each reader reads (LinkedProgram.Exchange)
//	            into buffer [writer][reader][c mod 2]
//	          → publish memory writes into the other memory view
//	          → barrier
//	          → copy in the remote words it reads from [writer][self][c mod 2].
//
// A writer refills a parity only after crossing the next barrier, which its
// reader reaches only after its copy-in, so one barrier per cycle suffices.
// During cycle c nobody writes memory view c mod 2, so the memory publish
// needs no barrier of its own either.
type Engine struct {
	prog *Program
	lp   *LinkedProgram

	// st[t] is thread t's private state array, [0, lp.Threads[t].End) of
	// the unified layout; a single-threaded engine's one array is the
	// whole layout. Every reader's copy of an exchanged word equals the
	// owner's between Run calls, and Run copies every other thread's
	// segment into st[0] as it returns, so st[0]'s globals are canonical
	// then: Peek, StateHash and Snapshot read them. Poke, Reset and
	// RestoreSnapshot write every array.
	st [][]uint64

	// mv holds one memory view for a single-threaded program and two for
	// a multi-threaded one; cur indexes the view the next cycle evaluates
	// over, which is also the one Peek, Snapshot and StateHash read.
	mv  []*memView
	cur int

	// xbuf[w][r][p] is the buffer writer w packs lp.Exchange[w][r] into on
	// cycles of parity p: each its own allocation of whole cache lines.
	xbuf [][][2][]uint64

	// sharedMem[m] marks memory m as written by more than one thread: the
	// barrier's last arriver commits it (commitShared), not its writers.
	sharedMem []bool

	// skipCatchUp and staleExchange are the planted protocol defects
	// (PlantSkipCatchUp, PlantStaleExchange).
	skipCatchUp, staleExchange bool

	cycles        uint64
	instrsRetired uint64
}

// memView is one copy of the memories plus what each thread evaluates with
// over it. A context's write buffer holds the writes of the thread's last
// cycle over this view, so the other view's buffers are the previous
// cycle's writes — the catch-up set of the memory publish.
type memView struct {
	mems [][]uint64
	// gs[t] addresses thread t's private array with this view's memories.
	gs  []*globalState
	tcs []*threadCtx
	// native, when non-nil, replaces each thread's eval phase with a
	// compiled kernel (InstallNative, native.go).
	native []nativeThread
}

// NewEngine creates an engine over the program's linked execution form and
// resets it to power-on state. The linked form is built once per Program
// and shared across engines.
func NewEngine(p *Program) *Engine {
	lp := p.Linked()
	e := &Engine{prog: p, lp: lp, sharedMem: sharedMems(p)}
	for t := range lp.Threads {
		e.st = append(e.st, make([]uint64, lp.Threads[t].End))
	}
	for range min(p.NumThreads, 2) {
		mv := &memView{}
		for _, m := range p.Mems {
			mv.mems = append(mv.mems, make([]uint64, m.Depth))
		}
		for t := range p.Threads {
			th, lt := &p.Threads[t], &lp.Threads[t]
			mv.gs = append(mv.gs, &globalState{words: e.st[t], stride: 1, mems: mv.mems})
			mv.tcs = append(mv.tcs, newThreadCtx(th, e.st[t][lt.TempOff:lt.End]))
		}
		e.mv = append(e.mv, mv)
	}
	e.xbuf = make([][][2][]uint64, len(lp.Exchange))
	for w := range lp.Exchange {
		e.xbuf[w] = make([][2][]uint64, len(lp.Exchange[w]))
		for r, words := range lp.Exchange[w] {
			for par := range e.xbuf[w][r] {
				e.xbuf[w][r][par] = make([]uint64, exchangeBufWords(len(words)))
			}
		}
	}
	e.Reset()
	return e
}

// exchangeBufWords is the length of an exchange buffer of n words, padded
// so that no two buffers share a cache line.
func exchangeBufWords(n int) int { return int(padTo(uint32(n), SegmentWords)) }

// NewInterpEngine returns NewEngine(p).
//
// Deprecated: the closure interpreter it used to select is deleted. The
// name survives only because the benchmark module (bench/layers.go, which
// is frozen between benchmark changes) still calls it; the next change to
// bench/ deletes it together with its sim.interp.rocket-1t row.
func NewInterpEngine(p *Program) *Engine { return NewEngine(p) }

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

// evalThread runs one eval phase of thread t over its array and memory
// view mv: the native kernel when one is installed, the linked stream
// otherwise. The thread's write buffer is emptied here, not after
// publishing, because the other view's publish still needs it for one more
// cycle.
func (e *Engine) evalThread(t int, mv *memView) {
	tc := mv.tcs[t]
	tc.memBuf = tc.memBuf[:0]
	if mv.native != nil {
		nt := &mv.native[t]
		nt.fn(e.st[t], mv.mems, nt.memwr)
		return
	}
	evalLinked(e.lp.Threads[t].Code, e.st[t], mv.gs[t], tc)
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
	for _, mv := range e.mv {
		for _, gs := range mv.gs {
			resetState(e.lp, gs, mv.tcs)
		}
	}
	e.cycles = 0
	e.instrsRetired = 0
}

// resetState restores one state array to power-on values — every word zero
// except the immediates and the register inits, memories zero — and drops
// its contexts' buffered memory writes. Engine arrays (prefixes of the
// unified layout, which all hold the globals and immediates) and batch
// lanes share it.
func resetState(lp *LinkedProgram, gs *globalState, tcs []*threadCtx) {
	p := lp.prog
	for i := range len(gs.words) / gs.stride {
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
	for _, gs := range e.mv[0].gs {
		if err := gs.pokeInput(e.prog, name, v); err != nil {
			return err
		}
	}
	return nil
}

// PokeInputVec sets an input port of any width.
func (e *Engine) PokeInputVec(name string, v bitvec.Vec) error {
	for _, gs := range e.mv[0].gs {
		if err := gs.pokeInputVec(e.prog, name, v); err != nil {
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

// gs is the canonical state between Run calls: thread 0's array, whose
// globals Run leaves coherent, with the current memory view.
func (e *Engine) gs() *globalState { return e.mv[e.cur].gs[0] }

// publishMems commits thread t's buffered memory writes of a cycle evaluated
// over memory view from into view to. With one view (from == to) that is
// the in-place update of the serial simulator. With two, to last held the
// memories of one cycle earlier, so the thread first re-applies the writes
// it made in the previous cycle (still buffered in to's context) and then
// this cycle's; memories with writers in several threads are left to
// commitShared.
func (e *Engine) publishMems(t int, from, to *memView) {
	if to != from && !e.skipCatchUp {
		e.applyWrites(to.tcs[t], to.mems, false)
	}
	e.applyWrites(from.tcs[t], to.mems, false)
}

// pack copies the words of thread t's segment each reader reads into the
// readers' buffers of parity par.
func (e *Engine) pack(t, par int) {
	st := e.st[t]
	for r, words := range e.lp.Exchange[t] {
		buf := e.xbuf[t][r][par]
		for i, w := range words {
			buf[i] = st[w]
		}
	}
}

// copyIn copies the remote words thread t reads out of the writers'
// buffers of parity par into its array.
func (e *Engine) copyIn(t, par int) {
	st := e.st[t]
	for w := range e.lp.Exchange {
		buf := e.xbuf[w][t][par]
		for i, x := range e.lp.Exchange[w][t] {
			st[x] = buf[i]
		}
	}
}

// PlantSkipCatchUp plants the double-buffering defect that mutation tests
// (internal/difftest) must catch: publish no longer re-applies the previous
// cycle's memory writes, so each view misses every other cycle's writes.
func (e *Engine) PlantSkipCatchUp() { e.skipCatchUp = true }

// PlantStaleExchange plants the exchange defect that mutation tests
// (internal/difftest) must catch: every thread packs its exchange buffers
// before committing its shadow, so each reader copies in the previous
// cycle's value of every remote word — what a copy-in from the wrong
// parity reads, without that mutant's data race.
func (e *Engine) PlantStaleExchange() { e.staleExchange = true }

// applyWrites stores tc's buffered memory writes of single-writer
// (shared == false) or multi-writer (shared == true) memories into mems.
func (e *Engine) applyWrites(tc *threadCtx, mems [][]uint64, shared bool) {
	for _, w := range tc.memBuf {
		if m := mems[w.mem]; w.addr < uint64(len(m)) && e.sharedMem[w.mem] == shared {
			m[w.addr] = w.data
		}
	}
}

// commitShared is publish for the memories written by several threads. The
// barrier's last arriver runs it while the others wait: the previous
// cycle's writes and then this cycle's, each in thread order, so a later
// cycle always overwrites an earlier one and two ports hitting one address
// in the same cycle resolve the same way on every run.
func (e *Engine) commitShared(from, to *memView) {
	for _, v := range [2]*memView{to, from} {
		for _, tc := range v.tcs {
			e.applyWrites(tc, to.mems, true)
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
	Update        time.Duration // commit, pack, memory publish and copy-in
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
				e.commitShared(e.mv[cur], e.mv[cur^1])
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
		for t := 1; t < p.NumThreads; t++ {
			th := &p.Threads[t]
			seg := e.st[t][th.GlobalOff : th.GlobalOff+th.ShadowWords]
			copy(e.st[0][th.GlobalOff:], seg)
		}
	}
	e.cycles += uint64(n)
	e.instrsRetired += uint64(p.TotalInstrs()) * uint64(n)
}

// runThread is thread t's cycle loop: evaluate, commit, pack, publish the
// memory writes, meet the others at the barrier, copy in, swap memory
// views. A nil bar is the single-threaded engine, whose one memory view is
// both and which exchanges nothing.
func (e *Engine) runThread(t, n int, bar *Barrier, prof [][]PhaseSample) {
	th := &e.prog.Threads[t]
	seg := e.st[t][th.GlobalOff : th.GlobalOff+th.ShadowWords]
	from, to := e.mv[e.cur], e.mv[len(e.mv)-1-e.cur]
	// The planted stale exchange packs before the commit.
	packEarly, packLate := bar != nil && e.staleExchange, bar != nil && !e.staleExchange
	var crossing uint32
	var t0, t1, t2, t3 time.Time
	for c := 0; c < n; c++ {
		if prof != nil {
			t0 = time.Now()
		}
		e.evalThread(t, from)
		if prof != nil {
			t1 = time.Now()
		}
		if packEarly {
			e.pack(t, c&1)
		}
		copy(seg, from.tcs[t].shadow)
		if packLate {
			e.pack(t, c&1)
		}
		e.publishMems(t, from, to)
		if prof != nil {
			t2 = time.Now()
		}
		if bar != nil {
			bar.Wait(&crossing)
		}
		if prof != nil {
			t3 = time.Now()
		}
		if bar != nil {
			e.copyIn(t, c&1)
		}
		if prof != nil {
			prof[c][t] = PhaseSample{Eval: t1.Sub(t0), EvalBarrier: t3.Sub(t2), Update: t2.Sub(t1) + time.Since(t3)}
		}
		from, to = to, from
	}
}
