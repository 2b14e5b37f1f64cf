package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitvec"
)

// TaskRange is one schedulable slice of a thread's instruction stream
// (a Verilator-style MTask): instructions [Start, End) of the thread's
// code, which may only run after all Deps have completed this cycle.
type TaskRange struct {
	ID    int
	Start int
	End   int
	// Deps lists task IDs (global numbering) that must complete first.
	// Dependences on tasks of the same thread that appear earlier in its
	// order are implicit and may be omitted.
	Deps []int
	// EstCost is the scheduler's predicted execution cost (arbitrary
	// units), kept for profiling comparisons.
	EstCost int64
}

// TaskPlan assigns ordered task slices to threads.
type TaskPlan struct {
	NumTasks  int
	PerThread [][]TaskRange
}

// TaskEngine executes a Shared-mode Program under a static task schedule
// with intra-cycle dependences — the execution model of Verilator's
// multithreading (§3 of the paper). Cross-thread dependences synchronize
// through per-task completion counters (spin + yield); register updates
// still use the two-phase shadow/update protocol so the baseline is
// cycle-exact with the other engines.
type TaskEngine struct {
	prog *Program
	plan TaskPlan
	// Linking is 1:1 (link.go), so the plan's TaskRange offsets index
	// linked code directly and the engine runs the resolved fast path.
	lp *LinkedProgram
	// The engine's one state view (the same layout Engine uses).
	*view

	doneCycle []atomic.Uint64 // per task: cycles completed
	cycles    uint64
}

// NewTaskEngine creates a task engine over a Shared-mode program.
func NewTaskEngine(p *Program, plan TaskPlan) (*TaskEngine, error) {
	if len(plan.PerThread) != p.NumThreads {
		return nil, fmt.Errorf("sim: plan has %d threads, program has %d", len(plan.PerThread), p.NumThreads)
	}
	lp := p.Linked()
	e := &TaskEngine{prog: p, plan: plan, lp: lp, view: newView(p, lp)}
	e.doneCycle = make([]atomic.Uint64, plan.NumTasks)
	e.Reset()
	return e, nil
}

// Reset restores power-on state.
func (e *TaskEngine) Reset() {
	resetState(e.lp, e.gs, e.tcs)
	for i := range e.doneCycle {
		e.doneCycle[i].Store(0)
	}
	e.cycles = 0
}

// PokeInput sets a narrow input port.
func (e *TaskEngine) PokeInput(name string, v uint64) error {
	return e.gs.pokeInput(e.prog, name, v)
}

// PeekReg reads a register at most 64 bits wide.
func (e *TaskEngine) PeekReg(name string) (uint64, error) {
	rs, ok := e.prog.Reg(name)
	if !ok {
		return 0, fmt.Errorf("sim: no register %q", name)
	}
	if rs.Width > 64 {
		return 0, fmt.Errorf("sim: register %q is %d bits wide; use PeekRegVec", name, rs.Width)
	}
	return *e.gs.at(rs.Slot), nil
}

// PeekOutput reads a narrow output port.
func (e *TaskEngine) PeekOutput(name string) (uint64, error) {
	return e.gs.peekOutput(e.prog, name)
}

// PokeInputVec sets an input port of any width.
func (e *TaskEngine) PokeInputVec(name string, v bitvec.Vec) error {
	return e.gs.pokeInputVec(e.prog, name, v)
}

// PeekRegVec reads a register of any width as a bit vector.
func (e *TaskEngine) PeekRegVec(name string) (bitvec.Vec, error) {
	return e.gs.peekRegVec(e.prog, name)
}

// PeekOutputVec reads an output port of any width as a bit vector.
func (e *TaskEngine) PeekOutputVec(name string) (bitvec.Vec, error) {
	return e.gs.peekOutputVec(e.prog, name)
}

// PeekMemVec reads one memory word of any element width as a bit vector.
func (e *TaskEngine) PeekMemVec(name string, addr int) (bitvec.Vec, error) {
	return e.gs.peekMemVec(e.prog, name, addr)
}

// Cycles returns cycles simulated since Reset.
func (e *TaskEngine) Cycles() uint64 { return e.cycles }

// waitFor spins until task dep has completed cycle c.
func (e *TaskEngine) waitFor(dep int, c uint64) {
	spins := 0
	for e.doneCycle[dep].Load() < c {
		spins++
		if spins >= 64 {
			runtime.Gosched()
			spins = 0
		}
	}
}

// update publishes thread t's shadow segment and buffered memory writes.
func (e *TaskEngine) update(t int) {
	th := &e.prog.Threads[t]
	tc := e.tcs[t]
	copy(e.state[th.GlobalOff:th.GlobalOff+th.ShadowWords], tc.shadow)
	for _, w := range tc.memBuf {
		m := e.gs.mems[w.mem]
		if w.addr < uint64(len(m)) {
			m[w.addr] = w.data
		}
	}
	tc.memBuf = tc.memBuf[:0]
}

// Run simulates n cycles.
func (e *TaskEngine) Run(n int) {
	e.run(n, nil)
}

// TaskSample records one task execution for profiling (Figure 2a): when
// the task started and finished relative to the cycle start, plus its
// predicted cost.
type TaskSample struct {
	Task    int
	Thread  int
	Wait    time.Duration // time spent waiting on dependences
	Exec    time.Duration // execution time
	EstCost int64
}

// RunProfiled simulates n cycles, returning per-cycle task samples.
func (e *TaskEngine) RunProfiled(n int) [][]TaskSample {
	out := make([][]TaskSample, max(n, 0))
	var mu sync.Mutex
	e.run(n, func(c int, s TaskSample) {
		mu.Lock()
		out[c] = append(out[c], s)
		mu.Unlock()
	})
	return out
}

func (e *TaskEngine) run(n int, sample func(cycle int, s TaskSample)) {
	if n <= 0 {
		return
	}
	p := e.prog
	base := e.cycles
	bar := NewBarrier(p.NumThreads)
	var wg sync.WaitGroup
	for t := 0; t < p.NumThreads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			var crossing uint32
			code := e.lp.Threads[t].Code
			tc := e.tcs[t]
			tasks := e.plan.PerThread[t]
			for c := 0; c < n; c++ {
				target := base + uint64(c) + 1
				for _, task := range tasks {
					var t0 time.Time
					if sample != nil {
						t0 = time.Now()
					}
					for _, dep := range task.Deps {
						e.waitFor(dep, target)
					}
					var t1 time.Time
					if sample != nil {
						t1 = time.Now()
					}
					evalLinked(code[task.Start:task.End], e.state, e.gs, tc)
					e.doneCycle[task.ID].Store(target)
					if sample != nil {
						t2 := time.Now()
						sample(c, TaskSample{
							Task: task.ID, Thread: t,
							Wait: t1.Sub(t0), Exec: t2.Sub(t1),
							EstCost: task.EstCost,
						})
					}
				}
				bar.Wait(&crossing)
				e.update(t)
				bar.Wait(&crossing)
			}
		}(t)
	}
	wg.Wait()
	e.cycles += uint64(n)
}

// resetState restores one state view to power-on values — every word zero
// except the immediates and the register inits, memories zero — and drops
// its contexts' buffered memory writes. Engine, TaskEngine and every batch
// lane share it.
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
