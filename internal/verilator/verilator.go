// Package verilator implements the paper's baseline: a Verilator-style
// parallel full-cycle simulator (§3). The design is over-partitioned into
// many more MTasks than threads; tasks are assigned to threads by static
// list scheduling driven by estimated execution costs; intra-cycle data
// dependences between tasks on different threads synchronize through
// per-task completion flags.
//
// Two cost estimators mirror the paper's configurations:
//
//   - default: the crude "AST weight" (one unit per IR node) that makes
//     Verilator's schedule vulnerable to bad predictions;
//   - PGO: the true per-vertex cost model, standing in for Verilator's
//     profile-guided rebuild, which feeds the scheduler accurate times.
//
// Like Verilator, the partitioner's merging can produce oversized tasks —
// the gigantic-partition pathology the paper profiles in Figure 2a.
package verilator

import (
	"fmt"
	"sort"

	"repro/internal/cgraph"
	"repro/internal/costmodel"
	"repro/internal/sim"
)

// Options configure the baseline simulator.
type Options struct {
	Threads int
	// PartsPerThread controls over-partitioning (default 3: "far more
	// partitions than threads" before merging).
	PartsPerThread int
	// PGO schedules with true model costs instead of node counts.
	PGO bool
	// Model is the true cost model (defaults to costmodel.Default()).
	Model *costmodel.Model
}

// MTask is one statically scheduled partition.
type MTask struct {
	ID       int
	Vertices []cgraph.VID
	EstCost  int64 // scheduler's estimate (node count, or true cost with PGO)
	TrueCost int64 // model cost (ground truth for analysis)
	Deps     []int // predecessor task IDs
	Thread   int
	// Predicted start/finish in estimate units from list scheduling.
	PredStart  int64
	PredFinish int64
}

// Sim is a compiled Verilator-style parallel simulator.
type Sim struct {
	Graph  *cgraph.Graph
	Prog   *sim.Program
	Engine *sim.TaskEngine
	Tasks  []MTask
	Plan   sim.TaskPlan
	// Makespan is the schedule's predicted cycle time in estimate units.
	Makespan int64
}

// New partitions, schedules, and compiles the baseline simulator for g.
func New(g *cgraph.Graph, opt Options) (*Sim, error) {
	if opt.Threads <= 0 {
		return nil, fmt.Errorf("verilator: Threads must be positive")
	}
	if opt.PartsPerThread <= 0 {
		opt.PartsPerThread = 3
	}
	model := costmodel.Default()
	if opt.Model != nil {
		model = *opt.Model
	}

	tasks := buildTasks(g, opt, model)
	schedule(tasks, opt.Threads)

	// Thread vertex lists in scheduled order.
	perThreadTasks := make([][]*MTask, opt.Threads)
	for i := range tasks {
		t := tasks[i].Thread
		perThreadTasks[t] = append(perThreadTasks[t], &tasks[i])
	}
	for t := range perThreadTasks {
		sort.Slice(perThreadTasks[t], func(a, b int) bool {
			ta, tb := perThreadTasks[t][a], perThreadTasks[t][b]
			if ta.PredStart != tb.PredStart {
				return ta.PredStart < tb.PredStart
			}
			return ta.ID < tb.ID
		})
	}

	specs := make([]sim.PartSpec, opt.Threads)
	for t := range perThreadTasks {
		for _, task := range perThreadTasks[t] {
			specs[t].Vertices = append(specs[t].Vertices, task.Vertices...)
			for _, v := range task.Vertices {
				if g.Vs[v].Kind.IsSink() {
					specs[t].Sinks = append(specs[t].Sinks, v)
				}
			}
		}
	}

	prog, err := sim.Compile(g, specs, sim.Config{Shared: true, Model: &model})
	if err != nil {
		return nil, fmt.Errorf("verilator: compile: %w", err)
	}

	// Slice each thread's code at task boundaries using the per-vertex
	// marks, and keep only cross-thread dependences for the wait loops.
	plan := sim.TaskPlan{NumTasks: len(tasks), PerThread: make([][]sim.TaskRange, opt.Threads)}
	threadOf := make([]int, len(tasks))
	for i := range tasks {
		threadOf[tasks[i].ID] = tasks[i].Thread
	}
	for t := range perThreadTasks {
		marks := prog.Threads[t].Marks
		vtx := 0
		for _, task := range perThreadTasks[t] {
			start := marks[vtx]
			vtx += len(task.Vertices)
			end := marks[vtx]
			var deps []int
			for _, d := range task.Deps {
				if threadOf[d] != t {
					deps = append(deps, d)
				}
			}
			plan.PerThread[t] = append(plan.PerThread[t], sim.TaskRange{
				ID: task.ID, Start: start, End: end, Deps: deps, EstCost: task.EstCost,
			})
		}
	}

	eng, err := sim.NewTaskEngine(prog, plan)
	if err != nil {
		return nil, err
	}
	s := &Sim{Graph: g, Prog: prog, Engine: eng, Tasks: tasks, Plan: plan}
	for i := range tasks {
		if tasks[i].PredFinish > s.Makespan {
			s.Makespan = tasks[i].PredFinish
		}
	}
	return s, nil
}

// buildTasks over-partitions the graph into cost-capped MTasks. Processing
// vertices in topological order and always joining the highest-numbered
// predecessor task keeps the task graph acyclic (a vertex's task ID is ≥
// all of its predecessors' task IDs). A chain-merge pass afterwards fuses
// single-pred/single-succ chains without any size bound, reproducing
// Verilator's unbounded partition growth.
func buildTasks(g *cgraph.Graph, opt Options, model costmodel.Model) []MTask {
	est := func(v cgraph.VID) int64 {
		if opt.PGO {
			return model.VertexCost(&g.Vs[v])
		}
		return 1 // crude per-node AST weight
	}
	var totalEst int64
	for _, v := range g.Topo {
		if !g.Vs[v].Kind.IsSource() {
			totalEst += est(v)
		}
	}
	cap_ := totalEst / int64(opt.Threads*opt.PartsPerThread*4)
	if cap_ < 1 {
		cap_ = 1
	}
	// Verilator's partitioner "does not limit partition sizes" (§3): its
	// coarsening occasionally follows long fan-in regions and produces
	// gigantic partitions. Emulate by letting a deterministic fraction of
	// tasks grow with a much larger cap.
	capOf := func(taskID int) int64 {
		h := uint64(taskID)*0x9e3779b97f4a7c15 + 0x1234
		h ^= h >> 29
		if h%6 == 0 {
			return cap_ * 14
		}
		return cap_
	}

	taskOf := make([]int32, g.NumVertices())
	for i := range taskOf {
		taskOf[i] = -1
	}
	var tasks []MTask
	newTask := func() int {
		id := len(tasks)
		tasks = append(tasks, MTask{ID: id})
		return id
	}
	rootTask := -1
	for _, v := range g.Topo {
		if g.Vs[v].Kind.IsSource() {
			continue
		}
		cand := -1
		for _, p := range g.Preds[v] {
			if g.Vs[p].Kind.IsSource() {
				continue
			}
			if int(taskOf[p]) > cand {
				cand = int(taskOf[p])
			}
		}
		if cand < 0 {
			// Root vertex: bucket roots together up to the cap.
			if rootTask < 0 || tasks[rootTask].EstCost >= capOf(rootTask) {
				rootTask = newTask()
			}
			cand = rootTask
		} else if tasks[cand].EstCost >= capOf(cand) {
			cand = newTask()
		}
		taskOf[v] = int32(cand)
		tasks[cand].Vertices = append(tasks[cand].Vertices, v)
		tasks[cand].EstCost += est(v)
		tasks[cand].TrueCost += model.VertexCost(&g.Vs[v])
	}

	// Task dependence edges.
	depSet := make([]map[int]bool, len(tasks))
	succSet := make([]map[int]bool, len(tasks))
	for i := range tasks {
		depSet[i] = map[int]bool{}
		succSet[i] = map[int]bool{}
	}
	for _, v := range g.Topo {
		if taskOf[v] < 0 {
			continue
		}
		tv := int(taskOf[v])
		for _, p := range g.Preds[v] {
			if taskOf[p] < 0 {
				continue
			}
			tp := int(taskOf[p])
			if tp != tv {
				depSet[tv][tp] = true
				succSet[tp][tv] = true
			}
		}
	}

	// Chain merge: B's sole predecessor is A and A's sole successor is B.
	// Unbounded, like Verilator's contraction — this is what produces the
	// gigantic partitions of Figure 2a.
	mergedInto := make([]int, len(tasks))
	for i := range mergedInto {
		mergedInto[i] = i
	}
	find := func(x int) int {
		for mergedInto[x] != x {
			mergedInto[x] = mergedInto[mergedInto[x]]
			x = mergedInto[x]
		}
		return x
	}
	for b := range tasks {
		if len(depSet[b]) != 1 {
			continue
		}
		var a int
		for k := range depSet[b] {
			a = k
		}
		a = find(a)
		if a == find(b) || len(succSet[a]) != 1 {
			continue
		}
		// Merge b into a.
		mergedInto[find(b)] = a
		tasks[a].Vertices = append(tasks[a].Vertices, tasks[b].Vertices...)
		tasks[a].EstCost += tasks[b].EstCost
		tasks[a].TrueCost += tasks[b].TrueCost
		succSet[a] = succSet[b]
		for s := range succSet[b] {
			delete(depSet[s], b)
			depSet[s][a] = true
		}
		tasks[b].Vertices = nil
	}

	// Compact away merged tasks and rebuild IDs/deps.
	var out []MTask
	remap := make([]int, len(tasks))
	for i := range tasks {
		if find(i) != i {
			remap[i] = -1
			continue
		}
		remap[i] = len(out)
		out = append(out, MTask{
			ID: len(out), Vertices: tasks[i].Vertices,
			EstCost: tasks[i].EstCost, TrueCost: tasks[i].TrueCost,
		})
	}
	for i := range tasks {
		if remap[i] < 0 {
			continue
		}
		seen := map[int]bool{}
		for d := range depSet[i] {
			rd := remap[find(d)]
			if rd >= 0 && rd != remap[i] && !seen[rd] {
				seen[rd] = true
				out[remap[i]].Deps = append(out[remap[i]].Deps, rd)
			}
		}
		sort.Ints(out[remap[i]].Deps)
	}

	// Keep each merged task's vertices in topological order.
	pos := make([]int32, g.NumVertices())
	for i, v := range g.Topo {
		pos[v] = int32(i)
	}
	for i := range out {
		vs := out[i].Vertices
		sort.Slice(vs, func(a, b int) bool { return pos[vs[a]] < pos[vs[b]] })
	}
	return out
}

// schedule assigns tasks to threads by list scheduling: priority is the
// critical-path (bottom-level) length in estimate units; each ready task
// goes to the thread where it can start earliest.
func schedule(tasks []MTask, threads int) {
	n := len(tasks)
	succs := make([][]int, n)
	indeg := make([]int, n)
	for i := range tasks {
		for _, d := range tasks[i].Deps {
			succs[d] = append(succs[d], i)
			indeg[i]++
		}
	}
	// Bottom levels via reverse topological order (IDs are creation-
	// ordered but deps were rebuilt; do a proper pass).
	order := topoOrder(tasks, succs, indeg)
	level := make([]int64, n)
	for i := len(order) - 1; i >= 0; i-- {
		t := order[i]
		level[t] = tasks[t].EstCost
		var best int64
		for _, s := range succs[t] {
			if level[s] > best {
				best = level[s]
			}
		}
		level[t] += best
	}

	threadAvail := make([]int64, threads)
	remaining := make([]int, n)
	copy(remaining, indeg)
	ready := []int{}
	for i := 0; i < n; i++ {
		if remaining[i] == 0 {
			ready = append(ready, i)
		}
	}
	finish := make([]int64, n)
	for len(ready) > 0 {
		// Highest priority ready task.
		best := 0
		for i := 1; i < len(ready); i++ {
			if level[ready[i]] > level[ready[best]] ||
				(level[ready[i]] == level[ready[best]] && ready[i] < ready[best]) {
				best = i
			}
		}
		t := ready[best]
		ready = append(ready[:best], ready[best+1:]...)

		var depReady int64
		for _, d := range tasks[t].Deps {
			if finish[d] > depReady {
				depReady = finish[d]
			}
		}
		// Thread with the earliest feasible start.
		bt := 0
		bs := maxI64(threadAvail[0], depReady)
		for th := 1; th < threads; th++ {
			s := maxI64(threadAvail[th], depReady)
			if s < bs {
				bt, bs = th, s
			}
		}
		tasks[t].Thread = bt
		tasks[t].PredStart = bs
		tasks[t].PredFinish = bs + tasks[t].EstCost
		finish[t] = tasks[t].PredFinish
		threadAvail[bt] = tasks[t].PredFinish
		for _, s := range succs[t] {
			remaining[s]--
			if remaining[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
}

func topoOrder(tasks []MTask, succs [][]int, indeg []int) []int {
	n := len(tasks)
	deg := make([]int, n)
	copy(deg, indeg)
	var q, order []int
	for i := 0; i < n; i++ {
		if deg[i] == 0 {
			q = append(q, i)
		}
	}
	for len(q) > 0 {
		t := q[0]
		q = q[1:]
		order = append(order, t)
		for _, s := range succs[t] {
			deg[s]--
			if deg[s] == 0 {
				q = append(q, s)
			}
		}
	}
	if len(order) != n {
		panic("verilator: task graph has a cycle")
	}
	return order
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// ThreadCosts returns the per-thread total true cost (for imbalance and
// host-model analysis).
func (s *Sim) ThreadCosts() []int64 {
	out := make([]int64, len(s.Plan.PerThread))
	for i := range s.Tasks {
		out[s.Tasks[i].Thread] += s.Tasks[i].TrueCost
	}
	return out
}

// MaxTaskCost returns the largest single task's true cost — the gigantic-
// partition metric.
func (s *Sim) MaxTaskCost() int64 {
	var m int64
	for i := range s.Tasks {
		if s.Tasks[i].TrueCost > m {
			m = s.Tasks[i].TrueCost
		}
	}
	return m
}
