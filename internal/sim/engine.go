package sim

import (
	"fmt"
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
// With several threads every thread owns a private state array — the
// prefix of the unified layout (link.go) holding the globals, the
// immediates and its own frame, which is every index its code uses — and
// its own copy of every memory column its code reads or writes
// (memHolders). Threads share nothing during evaluation, and each cycle is
// one bulk-synchronous superstep with one barrier (DESIGN.md §4 "Runtime
// protocol"):
//
//	cycle c:  evaluate over the own array and memories, buffering the
//	          memory writes in write buffer [self][c mod 2]
//	          → commit the shadow into the own segment
//	          → pack the words each reader reads (Program.Exchange)
//	            into buffer [writer][reader][c mod 2]
//	          → barrier
//	          → copy in the remote words it reads from [writer][self][c mod 2]
//	          → apply write buffer [w][c mod 2] of every thread w that
//	            writes a column it holds, in thread order, to its copies.
//
// A writer refills a parity only after crossing the next barrier, which its
// reader reaches only after its copy-in and memory apply, so one barrier
// per cycle suffices for registers and memories alike.
type Engine struct {
	prog *Program

	// st[t] is thread t's private state array, [0, prog.Threads[t].End) of
	// the unified layout; a single-threaded engine's one array is the
	// whole layout. Every reader's copy of an exchanged word equals the
	// owner's between Run calls, and Run copies every other thread's
	// segment into st[0] as it returns. Poke, Reset and RestoreSnapshot
	// write every array.
	st [][]uint64

	// gs[t] addresses st[t] with thread t's own memory columns (nil for a
	// column it does not hold), and tcs[t] is its runtime context. Every
	// copy of a column is equal between Run calls.
	gs  []*globalState
	tcs []*threadCtx
	// canon is the canonical state between Run calls — st[0] with each
	// column's lowest holder's copy — which Peek, StateHash and Snapshot
	// read.
	canon *globalState
	// writers[t] lists, in thread order, the threads that write a column
	// thread t holds (memHolders).
	writers [][]int
	// native, when non-nil, replaces each thread's eval phase with a
	// compiled kernel (InstallNative, native.go).
	native []nativeThread

	// xbuf[w][r][p] is the buffer writer w packs prog.Exchange[w][r] into on
	// cycles of parity p: each its own allocation of whole cache lines.
	xbuf [][][2][]uint64

	// dropRemoteWrites and staleExchange are the planted protocol defects
	// (PlantDropRemoteWrites, PlantStaleExchange).
	dropRemoteWrites, staleExchange bool

	cycles        uint64
	instrsRetired uint64
}

// NewEngine creates an engine over the program's linked code, which every
// engine over the Program shares, and resets it to power-on state.
func NewEngine(p *Program) *Engine {
	holds, writers := p.memHolders()
	e := &Engine{prog: p, writers: writers}
	canon := make([][]uint64, len(p.Mems))
	for t := range p.Threads {
		st := make([]uint64, p.Threads[t].End)
		mems := make([][]uint64, len(p.Mems))
		for m, held := range holds[t] {
			if held {
				mems[m] = make([]uint64, p.Mems[m].Depth)
			}
			if canon[m] == nil {
				canon[m] = mems[m]
			}
		}
		e.st = append(e.st, st)
		e.gs = append(e.gs, &globalState{words: st, stride: 1, mems: mems})
		e.tcs = append(e.tcs, newThreadCtx(p.Threads[t].Code))
	}
	e.canon = &globalState{words: e.st[0], stride: 1, mems: canon}
	e.xbuf = make([][][2][]uint64, len(p.Exchange))
	for w := range p.Exchange {
		e.xbuf[w] = make([][2][]uint64, len(p.Exchange[w]))
		for r, words := range p.Exchange[w] {
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

// evalThread runs one eval phase of thread t over its array and memories:
// the native kernel when one is installed, the linked stream otherwise. The
// cycle's memory writes go to write buffer par.
func (e *Engine) evalThread(t, par int) {
	tc := e.tcs[t]
	tc.memBuf = tc.wbuf[par][:0]
	if e.native != nil {
		nt := &e.native[t]
		nt.fn(e.st[t], e.gs[t].mems, nt.memwr)
	} else {
		evalLinked(e.prog.Threads[t].Code, e.st[t], e.gs[t], tc)
	}
	tc.wbuf[par] = tc.memBuf
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
	for _, gs := range e.gs {
		resetState(e.prog, gs)
	}
	e.cycles = 0
	e.instrsRetired = 0
}

// resetState restores one state array to power-on values: every word zero
// except the immediates and the register inits, memories zero. Engine
// arrays (prefixes of the unified layout, which all hold the globals and
// immediates) and batch lanes share it.
func resetState(p *Program, gs *globalState) {
	for i := range len(gs.words) / gs.stride {
		*gs.at(uint32(i)) = 0
	}
	for i, v := range p.Imms {
		*gs.at(uint32(p.ImmOff + i)) = v
	}
	for _, m := range gs.mems {
		clear(m)
	}
	for _, r := range p.Regs {
		gs.setVec(r.Slot, r.Width, r.Init)
	}
}

// PokeInput sets a narrow input port (values wider than 64 bits need
// PokeInputVec). The value is masked to the port width.
func (e *Engine) PokeInput(name string, v uint64) error {
	for _, gs := range e.gs {
		if err := gs.pokeInput(e.prog, name, v); err != nil {
			return err
		}
	}
	return nil
}

// PokeInputVec sets an input port of any width.
func (e *Engine) PokeInputVec(name string, v bitvec.Vec) error {
	for _, gs := range e.gs {
		if err := gs.pokeInputVec(e.prog, name, v); err != nil {
			return err
		}
	}
	return nil
}

// PeekOutput reads a narrow output port.
func (e *Engine) PeekOutput(name string) (uint64, error) {
	return e.canon.peekOutput(e.prog, name)
}

// PeekOutputVec reads an output port of any width.
func (e *Engine) PeekOutputVec(name string) (bitvec.Vec, error) {
	return e.canon.peekOutputVec(e.prog, name)
}

// PeekReg reads a register's current value as a bit vector.
func (e *Engine) PeekReg(name string) (bitvec.Vec, error) {
	return e.canon.peekRegVec(e.prog, name)
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
	return e.canon.mems[mi][addr], nil
}

// PeekMemVec reads one memory element of any width as a bit vector.
func (e *Engine) PeekMemVec(name string, addr int) (bitvec.Vec, error) {
	return e.canon.peekMemVec(e.prog, name, addr)
}

// pack copies the words of thread t's segment each reader reads into the
// readers' buffers of parity par.
func (e *Engine) pack(t, par int) {
	st := e.st[t]
	for r, words := range e.prog.Exchange[t] {
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
	for w := range e.prog.Exchange {
		buf := e.xbuf[w][t][par]
		for i, x := range e.prog.Exchange[w][t] {
			st[x] = buf[i]
		}
	}
}

// PlantDropRemoteWrites plants the memory-exchange defect that mutation
// tests (internal/difftest) must catch: every thread applies only its own
// memory writes, so a thread's copy of a column another thread writes never
// changes.
func (e *Engine) PlantDropRemoteWrites() { e.dropRemoteWrites = true }

// PlantStaleExchange plants the exchange defect that mutation tests
// (internal/difftest) must catch: every thread packs its exchange buffers
// before committing its shadow, so each reader copies in the previous
// cycle's value of every remote word — what a copy-in from the wrong
// parity reads, without that mutant's data race.
func (e *Engine) PlantStaleExchange() { e.staleExchange = true }

// applyWrites stores the buffered memory writes ws, in order, into the
// columns of mems; a write to a column mems does not hold (nil) or past a
// column's end is dropped.
func applyWrites(mems [][]uint64, ws []memWrite) {
	for _, w := range ws {
		if m := mems[w.mem]; w.addr < uint64(len(m)) {
			m[w.addr] = w.data
		}
	}
}

// Run simulates n cycles.
func (e *Engine) Run(n int) {
	e.run(n, nil)
}

// PhaseSample is the per-thread timing of one simulated cycle, mirroring
// the rdtsc-based profile of §6.5 (Figures 2 and 12). The engine crosses
// one barrier per cycle, after the commit and pack, so EvalBarrier is the
// wait at that barrier and UpdateBarrier is always zero; the field stays
// because consumers sum all four.
type PhaseSample struct {
	Eval          time.Duration // evaluation phase
	EvalBarrier   time.Duration // waiting at the cycle's barrier
	Update        time.Duration // commit, pack, copy-in and memory apply
	UpdateBarrier time.Duration // always 0: the update needs no barrier
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
		var wg sync.WaitGroup
		for t := 0; t < p.NumThreads; t++ {
			wg.Add(1)
			go func(t int) {
				defer wg.Done()
				e.runThread(t, n, bar, prof)
			}(t)
		}
		wg.Wait()
		for t := 1; t < p.NumThreads; t++ {
			th := &p.Threads[t]
			seg := e.st[t][th.GlobalOff : th.GlobalOff+th.ShadowWords]
			copy(e.st[0][th.GlobalOff:], seg)
		}
	}
	e.cycles += uint64(n)
	e.instrsRetired += uint64(p.TotalInstrs()) * uint64(n)
}

// runThread is thread t's cycle loop: evaluate, commit, pack, meet the
// others at the barrier, copy in, apply the cycle's memory writes to the
// own copies. A nil bar is the single-threaded engine, which exchanges
// nothing and applies only its own writes. The parity is the cycle index
// within this Run call: every buffer of a parity is consumed before Run
// returns, so nothing carries over to the next call.
func (e *Engine) runThread(t, n int, bar *Barrier, prof [][]PhaseSample) {
	th := &e.prog.Threads[t]
	sh := int(th.ShadowOff)
	seg := e.st[t][th.GlobalOff : th.GlobalOff+th.ShadowWords]
	shadow, mems := e.st[t][sh:sh+th.ShadowWords], e.gs[t].mems
	writers := e.writers[t]
	if e.dropRemoteWrites {
		writers = []int{t}
	}
	// The planted stale exchange packs before the commit.
	packEarly, packLate := bar != nil && e.staleExchange, bar != nil && !e.staleExchange
	var crossing uint32
	var t0, t1, t2, t3 time.Time
	for c := 0; c < n; c++ {
		par := c & 1
		if prof != nil {
			t0 = time.Now()
		}
		e.evalThread(t, par)
		if prof != nil {
			t1 = time.Now()
		}
		if packEarly {
			e.pack(t, par)
		}
		copy(seg, shadow)
		if packLate {
			e.pack(t, par)
		}
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
			e.copyIn(t, par)
		}
		for _, w := range writers {
			applyWrites(mems, e.tcs[w].wbuf[par])
		}
		if prof != nil {
			prof[c][t] = PhaseSample{Eval: t1.Sub(t0), EvalBarrier: t3.Sub(t2), Update: t2.Sub(t1) + time.Since(t3)}
		}
	}
}
