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
	gs   *globalState
	tcs  []*threadCtx

	// Linking is 1:1 (link.go), so the plan's TaskRange offsets index
	// linked code directly and the engine runs the resolved fast path.
	lp    *LinkedProgram
	state []uint64

	doneCycle []atomic.Uint64 // per task: cycles completed
	cycles    uint64
}

// NewTaskEngine creates a task engine over a Shared-mode program.
func NewTaskEngine(p *Program, plan TaskPlan) (*TaskEngine, error) {
	if len(plan.PerThread) != p.NumThreads {
		return nil, fmt.Errorf("sim: plan has %d threads, program has %d", len(plan.PerThread), p.NumThreads)
	}
	lp := p.Linked()
	e := &TaskEngine{prog: p, plan: plan, lp: lp}
	e.state = make([]uint64, lp.StateWords)
	copy(e.state[lp.ImmOff:], p.Imms)
	e.gs = newGlobalStateWords(p, e.state[:p.GlobalWords:p.GlobalWords])
	for t := range p.Threads {
		th := &p.Threads[t]
		lt := &lp.Threads[t]
		frame := e.state[lt.TempOff : int(lt.TempOff)+th.NumTemps+th.ShadowWords]
		e.tcs = append(e.tcs, newThreadCtx(p, th, frame))
	}
	e.doneCycle = make([]atomic.Uint64, plan.NumTasks)
	e.Reset()
	return e, nil
}

// Reset restores power-on state.
func (e *TaskEngine) Reset() {
	resetState(e.prog, e.gs)
	for t := range e.tcs {
		e.tcs[t].memBuf = e.tcs[t].memBuf[:0]
		e.tcs[t].wideMemBuf = e.tcs[t].wideMemBuf[:0]
	}
	for i := range e.doneCycle {
		e.doneCycle[i].Store(0)
	}
	e.cycles = 0
}

// PokeInput sets a narrow input port.
func (e *TaskEngine) PokeInput(name string, v uint64) error {
	ps, ok := e.prog.Input(name)
	if !ok || ps.Wide {
		return fmt.Errorf("sim: bad input %q", name)
	}
	e.gs.words[ps.Slot] = v & maskOf(ps.Width)
	return nil
}

// PeekReg reads a register value (narrow registers).
func (e *TaskEngine) PeekReg(name string) (uint64, error) {
	rs, ok := e.prog.Reg(name)
	if !ok {
		return 0, fmt.Errorf("sim: no register %q", name)
	}
	if rs.Wide {
		return e.gs.wide[rs.Slot].Uint64(), nil
	}
	return e.gs.words[rs.Slot], nil
}

// PeekOutput reads a narrow output port.
func (e *TaskEngine) PeekOutput(name string) (uint64, error) {
	ps, ok := e.prog.Output(name)
	if !ok || ps.Wide {
		return 0, fmt.Errorf("sim: bad output %q", name)
	}
	return e.gs.words[ps.Slot], nil
}

// PokeInputVec sets an input port of any width.
func (e *TaskEngine) PokeInputVec(name string, v bitvec.Vec) error {
	ps, ok := e.prog.Input(name)
	if !ok {
		return fmt.Errorf("sim: no input %q", name)
	}
	if ps.Wide {
		e.gs.wide[ps.Slot] = bitvec.ZeroExtend(ps.Width, v)
		return nil
	}
	e.gs.words[ps.Slot] = v.Uint64() & maskOf(ps.Width)
	return nil
}

// PeekRegVec reads a register of any width as a bit vector.
func (e *TaskEngine) PeekRegVec(name string) (bitvec.Vec, error) {
	rs, ok := e.prog.Reg(name)
	if !ok {
		return bitvec.Vec{}, fmt.Errorf("sim: no register %q", name)
	}
	if rs.Wide {
		return e.gs.wide[rs.Slot].Clone(), nil
	}
	return bitvec.FromUint64(rs.Width, e.gs.words[rs.Slot]), nil
}

// PeekOutputVec reads an output port of any width as a bit vector.
func (e *TaskEngine) PeekOutputVec(name string) (bitvec.Vec, error) {
	ps, ok := e.prog.Output(name)
	if !ok {
		return bitvec.Vec{}, fmt.Errorf("sim: no output %q", name)
	}
	if ps.Wide {
		return e.gs.wide[ps.Slot].Clone(), nil
	}
	return bitvec.FromUint64(ps.Width, e.gs.words[ps.Slot]), nil
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
	copy(e.gs.words[th.GlobalOff:th.GlobalOff+th.ShadowWords], tc.shadow)
	for i, slot := range th.WideShadowSlots {
		e.gs.wide[slot] = tc.wideShadow[i]
	}
	for _, w := range tc.memBuf {
		m := e.gs.mems[w.mem]
		if w.addr < uint64(len(m)) {
			m[w.addr] = w.data
		}
	}
	tc.memBuf = tc.memBuf[:0]
	for _, w := range tc.wideMemBuf {
		m := e.gs.wideMems[w.mem]
		if w.addr < uint64(len(m)) {
			m[w.addr] = w.data
		}
	}
	tc.wideMemBuf = tc.wideMemBuf[:0]
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
	out := make([][]TaskSample, n)
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
					evalLinked(code[task.Start:task.End], e.state, p, e.lp, e.gs, tc)
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

func zeroVec(w int) bitvec.Vec { return bitvec.New(w) }

func extendInit(r RegSlot) bitvec.Vec { return bitvec.ZeroExtend(r.Width, r.Init) }

// resetState restores a global state to power-on values (shared by Engine
// and TaskEngine).
func resetState(p *Program, gs *globalState) {
	for i := range gs.words {
		gs.words[i] = 0
	}
	for i, w := range p.WideWidths {
		gs.wide[i] = zeroVec(w)
	}
	for mi := range gs.mems {
		if gs.mems[mi] != nil {
			for i := range gs.mems[mi] {
				gs.mems[mi][i] = 0
			}
		}
		if gs.wideMems[mi] != nil {
			for i := range gs.wideMems[mi] {
				gs.wideMems[mi][i] = zeroVec(p.Mems[mi].Width)
			}
		}
	}
	for _, r := range p.Regs {
		if r.Wide {
			gs.wide[r.Slot] = extendInit(r)
		} else {
			gs.words[r.Slot] = r.Init.Uint64() & maskOf(r.Width)
		}
	}
}
