// Package verilator implements the paper's baseline: a Verilator-style
// parallel full-cycle simulator (§3). The design is over-partitioned into
// many more MTasks than threads; tasks are assigned to threads by static
// list scheduling driven by estimated execution costs; intra-cycle data
// dependences between tasks on different threads synchronize through
// per-task completion flags.
//
// The baseline is a schedule, not an executor: New counts each task's
// instructions from the serial compile's per-vertex counts
// (sim.VertexInstrs), prices each thread with every combinational value
// in the shared global array, as Verilator's tasks communicate mid-cycle,
// and internal/hostmodel replays the result (Sim.Threads, Sim.TaskWork) on
// the modeled host.
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

	"repro/internal/bitvec"
	"repro/internal/cgraph"
	"repro/internal/costmodel"
	"repro/internal/hostmodel"
	"repro/internal/sim"
)

// partsPerThread is the over-partitioning factor: "far more partitions
// than threads" before merging.
const partsPerThread = 3

// Options configure the baseline simulator.
type Options struct {
	Threads int
	// PGO schedules with true model costs instead of node counts.
	PGO bool
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

// Sim is a scheduled Verilator-style parallel simulator: what the host
// model needs to replay one cycle of it.
type Sim struct {
	Tasks []MTask
	// Threads is each thread's workload: its tasks' instructions and
	// costs, with every value in the shared global array.
	Threads []hostmodel.ThreadWork
	// TaskWork lists each thread's tasks in schedule order, with their
	// instruction counts and cross-thread dependences.
	TaskWork [][]hostmodel.TaskWork
}

// New partitions and schedules the baseline simulator for g and costs it
// from the serial compile's per-vertex instruction counts.
func New(g *cgraph.Graph, opt Options) (*Sim, error) {
	if opt.Threads <= 0 {
		return nil, fmt.Errorf("verilator: Threads must be positive")
	}
	instrs, temps, inputWords, err := sim.VertexInstrs(g)
	if err != nil {
		return nil, fmt.Errorf("verilator: %w", err)
	}

	tasks := buildTasks(g, opt, costmodel.Default())
	schedule(tasks, opt.Threads)

	// Thread task lists in scheduled order.
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

	// Count each task's instructions and keep only cross-thread
	// dependences: same-thread ones are implied by the thread's task
	// order. Every combinational value lives in the shared global array,
	// after the inputs and each thread's padded segment of sink slots.
	s := &Sim{Tasks: tasks, TaskWork: make([][]hostmodel.TaskWork, opt.Threads)}
	type threadCount struct {
		instrs, shadowWords, branches int
		cost                          int64
	}
	counts := make([]threadCount, opt.Threads)
	globalWords := inputWords + temps
	for t := range perThreadTasks {
		tc := &counts[t]
		for _, task := range perThreadTasks[t] {
			n := 0
			for _, v := range task.Vertices {
				n += instrs[v]
				vx := &g.Vs[v]
				if vx.Kind == cgraph.KindRegWrite || vx.Kind == cgraph.KindOutput {
					tc.shadowWords += bitvec.WordsFor(vx.Type.Width)
				}
				if vx.IsBranch() {
					tc.branches++
				}
			}
			var deps []int
			for _, d := range task.Deps {
				if tasks[d].Thread != t {
					deps = append(deps, d)
				}
			}
			s.TaskWork[t] = append(s.TaskWork[t], hostmodel.TaskWork{
				ID: task.ID, Thread: t, Deps: deps,
				CostUnits: float64(task.TrueCost),
				Instrs:    float64(n),
			})
			tc.instrs += n
			tc.cost += task.TrueCost
		}
		globalWords += (tc.shadowWords + sim.SegmentWords - 1) / sim.SegmentWords * sim.SegmentWords
	}
	for _, tc := range counts {
		s.Threads = append(s.Threads, hostmodel.Work(tc.instrs, tc.cost, 0, tc.shadowWords, globalWords, tc.branches))
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
	cap_ := totalEst / int64(opt.Threads*partsPerThread*4)
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
