// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) from this reproduction's substrates: the design
// generators, the RepCut partitioner, the compiled simulators, the
// Verilator-style baseline, and the simulated host. It is shared by the
// cmd/benchall binary and the bench_test.go benchmark targets.
//
// The per-experiment index in DESIGN.md maps each exported method here to
// the paper table/figure it regenerates.
package experiments

import (
	"fmt"
	"sync"

	"repro/internal/cgraph"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/designs"
	"repro/internal/hostmodel"
	"repro/internal/sim"
	"repro/internal/verilator"
)

// Simulator names used throughout the results.
const (
	SimRepCut       = "RepCut"
	SimRepCutUW     = "RepCut UW"
	SimVerilator    = "Verilator"
	SimVerilatorPGO = "Verilator PGO"
)

// Suite evaluates experiments with memoized design builds, partitions, and
// compiled programs.
type Suite struct {
	Scale   float64
	CPU     hostmodel.CPU
	Seed    int64
	Threads []int // thread sweep (1 is implied as the baseline)
	Designs []designs.Config

	mu      sync.Mutex
	graphs  map[string]*cgraph.Graph
	serials map[string]*sim.Program
	parts   map[string]*core.Result
	progs   map[string]*sim.Program
	vsims   map[string]*verilator.Sim
}

// New returns the full evaluation suite: all 12 designs of Table 1 and the
// paper's thread sweep up to both sockets.
func New() *Suite {
	return &Suite{
		Scale:   1.0,
		CPU:     hostmodel.ScaledXeon8260(),
		Seed:    1,
		Threads: []int{2, 4, 6, 8, 12, 16, 24, 32, 48},
		Designs: designs.Table1(1.0),
	}
}

// NewQuick returns a reduced suite (one design per family, fewer thread
// counts) sized for `go test -bench`.
func NewQuick() *Suite {
	return &Suite{
		Scale:   1.0,
		CPU:     hostmodel.ScaledXeon8260(),
		Seed:    1,
		Threads: []int{4, 8, 16, 24},
		Designs: []designs.Config{
			{Kind: designs.Rocket, Cores: 1, Scale: 1},
			{Kind: designs.SmallBoom, Cores: 1, Scale: 1},
			{Kind: designs.LargeBoom, Cores: 2, Scale: 1},
			{Kind: designs.MegaBoom, Cores: 4, Scale: 1},
		},
	}
}

// Graph returns the (memoized) circuit graph of a design.
func (s *Suite) Graph(cfg designs.Config) *cgraph.Graph {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.graphs == nil {
		s.graphs = map[string]*cgraph.Graph{}
	}
	if g, ok := s.graphs[cfg.Name()]; ok {
		return g
	}
	g, err := designs.Build(cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: build %s: %v", cfg.Name(), err))
	}
	s.graphs[cfg.Name()] = g
	return g
}

// SerialProgram returns the single-threaded program at the given opt level.
func (s *Suite) SerialProgram(cfg designs.Config, opt int) *sim.Program {
	key := fmt.Sprintf("%s/O%d", cfg.Name(), opt)
	s.mu.Lock()
	if s.serials == nil {
		s.serials = map[string]*sim.Program{}
	}
	if p, ok := s.serials[key]; ok {
		s.mu.Unlock()
		return p
	}
	s.mu.Unlock()
	g := s.Graph(cfg)
	p, err := sim.Compile(g, sim.SerialSpec(g), sim.Config{OptLevel: opt})
	if err != nil {
		panic(fmt.Sprintf("experiments: compile %s: %v", key, err))
	}
	s.mu.Lock()
	s.serials[key] = p
	s.mu.Unlock()
	return p
}

// Partition returns the (memoized) RepCut partitioning.
func (s *Suite) Partition(cfg designs.Config, k int, unweighted bool) *core.Result {
	key := fmt.Sprintf("%s/k%d/uw%v", cfg.Name(), k, unweighted)
	s.mu.Lock()
	if s.parts == nil {
		s.parts = map[string]*core.Result{}
	}
	if r, ok := s.parts[key]; ok {
		s.mu.Unlock()
		return r
	}
	s.mu.Unlock()
	g := s.Graph(cfg)
	model := costmodel.Default()
	if unweighted {
		model = costmodel.Unweighted()
	}
	r, err := core.Partition(g, core.Options{K: k, Seed: s.Seed, Model: model})
	if err != nil {
		panic(fmt.Sprintf("experiments: partition %s: %v", key, err))
	}
	s.mu.Lock()
	s.parts[key] = r
	s.mu.Unlock()
	return r
}

// Program returns the compiled parallel program for a partitioning.
func (s *Suite) Program(cfg designs.Config, k int, unweighted bool, opt int) *sim.Program {
	key := fmt.Sprintf("%s/k%d/uw%v/O%d", cfg.Name(), k, unweighted, opt)
	s.mu.Lock()
	if s.progs == nil {
		s.progs = map[string]*sim.Program{}
	}
	if p, ok := s.progs[key]; ok {
		s.mu.Unlock()
		return p
	}
	s.mu.Unlock()
	res := s.Partition(cfg, k, unweighted)
	specs := make([]sim.PartSpec, len(res.Parts))
	for i := range res.Parts {
		specs[i] = sim.PartSpec{Vertices: res.Parts[i].Vertices, Sinks: res.Parts[i].Sinks}
	}
	// Cost accounting always uses the true model, even for UW partitions:
	// the UW configuration balances badly, it does not execute differently.
	p, err := sim.Compile(s.Graph(cfg), specs, sim.Config{OptLevel: opt})
	if err != nil {
		panic(fmt.Sprintf("experiments: compile %s: %v", key, err))
	}
	s.mu.Lock()
	s.progs[key] = p
	s.mu.Unlock()
	return p
}

// Verilator returns the scheduled baseline simulator.
func (s *Suite) Verilator(cfg designs.Config, k int, pgo bool) *verilator.Sim {
	key := fmt.Sprintf("%s/k%d/pgo%v", cfg.Name(), k, pgo)
	s.mu.Lock()
	if s.vsims == nil {
		s.vsims = map[string]*verilator.Sim{}
	}
	if v, ok := s.vsims[key]; ok {
		s.mu.Unlock()
		return v
	}
	s.mu.Unlock()
	v, err := verilator.New(s.Graph(cfg), verilator.Options{Threads: k, PGO: pgo})
	if err != nil {
		panic(fmt.Sprintf("experiments: verilator %s: %v", key, err))
	}
	s.mu.Lock()
	s.vsims[key] = v
	s.mu.Unlock()
	return v
}

// Perf is one simulator's modeled performance at one configuration.
type Perf struct {
	Design    string
	Simulator string
	K         int
	Placement hostmodel.Placement
	KHz       float64
	SerialKHz float64
	Speedup   float64
	// ThreadEvalNs drives the profile figures (nil for task engines).
	ThreadEvalNs []float64
	BarrierNs    float64
	CycleNs      float64
	Counters     hostmodel.Counters
	// RepCut-only partition metrics.
	Replication   float64
	ImbalanceExcl float64
	ImbalanceIncl float64
	// Verilator-only schedule timeline.
	TaskEval *hostmodel.TaskEval
}

// RepCutPerf models RepCut (or RepCut UW) at k threads.
func (s *Suite) RepCutPerf(cfg designs.Config, k int, unweighted bool, opt int, pl hostmodel.Placement) Perf {
	serial := hostmodel.Evaluate(s.CPU, hostmodel.WorkFromProgram(s.SerialProgram(cfg, opt)), pl)
	name := SimRepCut
	if unweighted {
		name = SimRepCutUW
	}
	if k <= 1 {
		return Perf{
			Design: cfg.Name(), Simulator: name, K: 1, Placement: pl,
			KHz: serial.KHz, SerialKHz: serial.KHz, Speedup: 1,
			ThreadEvalNs: serial.ThreadEvalNs, CycleNs: serial.CycleNs,
			Counters: serial.Counters,
		}
	}
	prog := s.Program(cfg, k, unweighted, opt)
	res := s.Partition(cfg, k, unweighted)
	ev := hostmodel.Evaluate(s.CPU, hostmodel.WorkFromProgram(prog), pl)
	return Perf{
		Design: cfg.Name(), Simulator: name, K: k, Placement: pl,
		KHz: ev.KHz, SerialKHz: serial.KHz, Speedup: ev.KHz / serial.KHz,
		ThreadEvalNs: ev.ThreadEvalNs, BarrierNs: ev.BarrierNs, CycleNs: ev.CycleNs,
		Counters:    ev.Counters,
		Replication: res.ReplicationCost, ImbalanceExcl: res.ImbalanceExcl,
		ImbalanceIncl: res.ImbalanceIncl,
	}
}

// VerilatorPerf models the baseline at k threads.
func (s *Suite) VerilatorPerf(cfg designs.Config, k int, pgo bool, pl hostmodel.Placement) Perf {
	name := SimVerilator
	if pgo {
		name = SimVerilatorPGO
	}
	v1 := s.Verilator(cfg, 1, pgo)
	serial := hostmodel.EvaluateTasks(s.CPU, v1.Threads, v1.TaskWork, pl)
	if k <= 1 {
		return Perf{
			Design: cfg.Name(), Simulator: name, K: 1, Placement: pl,
			KHz: serial.KHz, SerialKHz: serial.KHz, Speedup: 1, CycleNs: serial.CycleNs,
		}
	}
	v := s.Verilator(cfg, k, pgo)
	ev := hostmodel.EvaluateTasks(s.CPU, v.Threads, v.TaskWork, pl)
	return Perf{
		Design: cfg.Name(), Simulator: name, K: k, Placement: pl,
		KHz: ev.KHz, SerialKHz: serial.KHz, Speedup: ev.KHz / serial.KHz,
		CycleNs: ev.CycleNs, TaskEval: &ev,
	}
}

// Scalability computes the full Figure 7/8/9/13 dataset: every design, the
// four simulators, the thread sweep.
func (s *Suite) Scalability() []Perf {
	var out []Perf
	for _, cfg := range s.Designs {
		out = append(out,
			s.RepCutPerf(cfg, 1, false, 2, hostmodel.SameSocket),
			s.RepCutPerf(cfg, 1, true, 2, hostmodel.SameSocket),
			s.VerilatorPerf(cfg, 1, false, hostmodel.SameSocket),
			s.VerilatorPerf(cfg, 1, true, hostmodel.SameSocket))
		for _, k := range s.Threads {
			if k <= 1 || k > s.CPU.MaxThreads() {
				continue
			}
			out = append(out,
				s.RepCutPerf(cfg, k, false, 2, hostmodel.SameSocket),
				s.RepCutPerf(cfg, k, true, 2, hostmodel.SameSocket),
				s.VerilatorPerf(cfg, k, false, hostmodel.SameSocket),
				s.VerilatorPerf(cfg, k, true, hostmodel.SameSocket))
		}
	}
	return out
}
