// Package repcut is a Go reproduction of "RepCut: Superlinear Parallel RTL
// Simulation with Replication-Aided Partitioning" (Wang & Beamer,
// ASPLOS 2023): a full-cycle RTL simulation framework whose parallel
// backend cuts the design into balanced, fully independent partitions by
// replicating a small amount of overlapping logic, so threads synchronize
// only at cycle boundaries: twice per simulated cycle in the paper, once
// here (the engine double-buffers register state; DESIGN.md §4).
//
// The typical flow:
//
//	circ, err := repcut.ParseCircuit(src)       // or designs.Build / firrtl.Builder
//	d, err := repcut.Elaborate(circ)            // flatten + lower + graph + merge
//	sim, err := d.CompileParallel(repcut.Options{Threads: 8})
//	sim.PokeInput("io_in", 42)
//	sim.Run(1000)
//	v, _ := sim.PeekOutput("io_out")
//
// Serial compilation (CompileSerial), the Verilator-style baseline
// (internal/verilator), the replication-aided partitioner (Partition), and
// the paper's full evaluation harness (internal/experiments, cmd/benchall)
// are built on the same primitives.
package repcut

import (
	"fmt"
	"os"

	"repro/internal/cgraph"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/firrtl"
	"repro/internal/sim"
	"repro/internal/verify"
)

// Design is an elaborated circuit: flattened, lowered, and converted to the
// split circuit DAG the partitioner and compilers operate on.
type Design struct {
	Circuit *firrtl.Circuit
	Graph   *cgraph.Graph
	// built holds the Table 1 statistics of Graph as cgraph.Build made it,
	// before Merge (nil for a Design assembled around an existing graph).
	built *cgraph.Stats
}

// ParseCircuit parses the textual IR format (see internal/firrtl) and
// checks it.
func ParseCircuit(src string) (*firrtl.Circuit, error) {
	c, err := firrtl.Parse(src)
	if err != nil {
		return nil, err
	}
	if err := firrtl.Check(c); err != nil {
		return nil, err
	}
	return c, nil
}

// LoadCircuit reads and parses a circuit file.
func LoadCircuit(path string) (*firrtl.Circuit, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseCircuit(string(data))
}

// Elaborate flattens the module hierarchy, lowers expressions to graph
// normal form, builds the split circuit DAG, and merges its redundant
// logic (cgraph.Graph.Merge), so everything downstream partitions,
// compiles and runs each distinct computation once.
func Elaborate(c *firrtl.Circuit) (*Design, error) {
	fc, err := firrtl.Flatten(c)
	if err != nil {
		return nil, err
	}
	lc, err := firrtl.Lower(fc)
	if err != nil {
		return nil, err
	}
	g, err := cgraph.Build(lc)
	if err != nil {
		return nil, err
	}
	built := g.Stats()
	g.Merge()
	return &Design{Circuit: lc, Graph: g, built: &built}, nil
}

// Stats returns the design's Table 1 statistics, counted on the graph as
// built, before the merge: the same numbers designs.Build and the paper
// tables report. Graph.Stats() describes the merged graph the partitioner
// sees.
func (d *Design) Stats() cgraph.Stats {
	if d.built != nil {
		return *d.built
	}
	return d.Graph.Stats()
}

// Backend selects the execution engine simulators created from a Compiled
// will run on. All backends execute the same compiled Program over the
// same state layout, so they are freely interchangeable (and hot-swappable
// between Run calls).
type Backend int

const (
	// BackendLinked is the default: the linked instruction-stream
	// executor.
	BackendLinked Backend = iota
	// BackendNative emits each thread's linked stream as Go source,
	// compiles it out of process into a plugin (internal/codegen), and
	// runs the loaded kernel. When the platform cannot build or load
	// plugins — or the build fails — compilation still succeeds and
	// simulators fall back to BackendLinked; Compiled.NativeErr says why.
	BackendNative
)

// String names the backend as the CLI flags spell it.
func (b Backend) String() string {
	if b == BackendNative {
		return "native"
	}
	return "linked"
}

// ParseBackend converts a CLI flag value to a Backend.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "", "linked":
		return BackendLinked, nil
	case "native":
		return BackendNative, nil
	}
	return 0, fmt.Errorf("repcut: unknown backend %q (want linked, native)", s)
}

// Options configure parallel compilation.
type Options struct {
	// Threads is the partition count (required, >= 1).
	Threads int
	// Epsilon is the balance tolerance (default 0.03).
	Epsilon float64
	// Seed makes partitioning deterministic (default 1).
	Seed int64
	// Unweighted disables the simulation cost model ("RepCut UW").
	Unweighted bool
	// OptLevel selects backend optimization: 0 none, 1 const-fold +
	// copy-prop, 2 (default) additionally fuses truncations.
	OptLevel int
	// Workers bounds the parallelism of partitioning and compilation
	// themselves (not of the resulting simulator). <= 0 uses all cores;
	// 1 forces the serial pipeline. Output is bit-identical for every
	// worker count.
	Workers int
	// Verify statically proves the compiled program race-free,
	// partition-closed, and well-scheduled (internal/verify) before
	// returning it; compilation fails on any violation, and the full
	// diagnostic report is attached to the Simulator.
	Verify bool
	// Validate additionally runs translation validation: the optimized,
	// linked program is symbolically proven equivalent to an O0
	// reference recompiled from the same partition (internal/verify/tvalid).
	// Compilation fails on any divergence. Implies the Verify scan.
	Validate bool
	// Backend selects the execution engine for simulators created from
	// the result (default BackendLinked). BackendNative builds (or fetches
	// from the artifact store) a compiled kernel during CompileProgram.
	Backend Backend
	// Artifacts names the native artifact store directory (BackendNative
	// only). Empty uses the per-user default under the system temp dir, so
	// repeated runs share warm artifacts.
	Artifacts string
	// Profile enables profile-guided rebalance: compile once, measure
	// per-thread eval+commit phase times over ProfileCycles simulated
	// cycles, and repartition with the hypergraph weights scaled by each
	// thread's measured-vs-predicted cost ratio before the final compile.
	// Timing-driven, so partitions may differ between hosts and runs —
	// results stay correct (the rebalance only reshapes the proxy weights)
	// but bit-identical partition reproducibility is deliberately traded
	// for measured balance.
	Profile bool
	// ProfileCycles is the measurement run length for Profile (default 64).
	ProfileCycles int
}

func (o *Options) defaults() {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.OptLevel == 0 {
		o.OptLevel = 2
	}
}

// PartitionReport summarizes a replication-aided partitioning.
type PartitionReport struct {
	Threads            int
	ReplicationCost    float64 // Formula 3
	ImbalanceExcl      float64 // Formula 4 before replication
	ImbalanceIncl      float64 // Formula 4 after replication
	ReplicatedVertices int
	PartWeights        []int64
	// CutCost is the partitioner's proxy objective Σ(λ−1)·ω (Formula 2).
	CutCost int64
	// DerepGroups/DerepRegs count the dereplication groups applied and the
	// registers they demoted (0 when nothing was profitable).
	DerepGroups int
	DerepRegs   int
	// Profiled is true when the partition was rebalanced from measured
	// phase times (Options.Profile).
	Profiled bool
}

// Partition runs the replication-aided partitioner without compiling.
func (d *Design) Partition(opt Options) (*core.Result, *PartitionReport, error) {
	return d.partition(opt, nil)
}

// partition runs the partitioner, optionally with profile feedback from a
// previous iteration.
func (d *Design) partition(opt Options, pf *core.ProfileFeedback) (*core.Result, *PartitionReport, error) {
	opt.defaults()
	model := costmodel.Default()
	if opt.Unweighted {
		model = costmodel.Unweighted()
	}
	res, err := core.Partition(d.Graph, core.Options{
		K: opt.Threads, Epsilon: opt.Epsilon, Seed: opt.Seed, Model: model,
		Workers: opt.Workers, Verify: opt.Verify,
		Derep: true, Profile: pf,
	})
	if err != nil {
		return nil, nil, err
	}
	rep := &PartitionReport{
		Threads:            opt.Threads,
		ReplicationCost:    res.ReplicationCost,
		ImbalanceExcl:      res.ImbalanceExcl,
		ImbalanceIncl:      res.ImbalanceIncl,
		ReplicatedVertices: res.ReplicatedVertices,
		CutCost:            res.CutCost,
		DerepGroups:        len(res.Dereps),
		DerepRegs:          res.DerepRegs,
		Profiled:           pf != nil,
	}
	for i := range res.Parts {
		rep.PartWeights = append(rep.PartWeights, res.Parts[i].Weight)
	}
	return res, rep, nil
}

// PartSpecs converts a partitioning into the compiler's per-thread specs,
// dereplication groups included. Use it wherever a core.Result feeds
// sim.Compile on a two-phase backend.
func PartSpecs(res *core.Result) []sim.PartSpec {
	return partSpecs(res)
}

func partSpecs(res *core.Result) []sim.PartSpec {
	specs := make([]sim.PartSpec, len(res.Parts))
	for i := range res.Parts {
		specs[i] = sim.PartSpec{
			Vertices: res.Parts[i].Vertices,
			Sinks:    res.Parts[i].Sinks,
			Dereps:   res.DerepsOf(i),
		}
	}
	return specs
}

// Simulator is a ready-to-run compiled simulator.
type Simulator struct {
	*sim.Engine
	Report *PartitionReport // nil for serial compilation
	// Verification is the static soundness report (nil unless
	// Options.Verify was set).
	Verification *verify.Report
	// Backend is the engine this simulator actually runs on — it can
	// differ from the requested Options.Backend when the native kernel
	// was unavailable and the linked interpreter stood in.
	Backend Backend
}

// CompileSerial builds the single-threaded (ESSENT-style) simulator.
func (d *Design) CompileSerial(optLevel int) (*Simulator, error) {
	p, err := sim.Compile(d.Graph, sim.SerialSpec(d.Graph), sim.Config{OptLevel: optLevel})
	if err != nil {
		return nil, err
	}
	return &Simulator{Engine: sim.NewEngine(p)}, nil
}

// Compiled is the immutable result of one partition+compile run: the
// program (shareable by any number of sim.Engine instances), the partition
// report, and the optional verification report. It is the unit the serving
// layer (internal/service) caches by content address; NewSimulator attaches
// fresh per-session state to it.
type Compiled struct {
	Program      *sim.Program
	Report       *PartitionReport
	Verification *verify.Report
	// Backend is the requested execution backend.
	Backend Backend
	// Native is the loaded native kernel (Backend == BackendNative and
	// the artifact built and loaded). Kernels are process-pinned and
	// shared by every simulator over this Compiled.
	Native *codegen.Kernel
	// NativeErr records why the native backend is unavailable when
	// Backend == BackendNative but Native is nil (plugin-unsupported
	// platform, build failure); simulators fall back to BackendLinked.
	NativeErr error
}

// NewSimulator creates an independent simulator over a compiled program.
// Engines share the (read-only) program and any loaded native kernel but
// nothing else, so any number of concurrent sessions can run off one
// Compiled.
func (c *Compiled) NewSimulator() *Simulator {
	s := &Simulator{Report: c.Report, Verification: c.Verification, Backend: BackendLinked}
	s.Engine = sim.NewEngine(c.Program)
	if c.Backend == BackendNative && c.Native != nil {
		if err := s.Engine.InstallNative(c.Native.Threads); err == nil {
			s.Backend = BackendNative
		}
	}
	return s
}

// CompileParallel partitions the design and builds the RepCut parallel
// simulator: Options.Threads goroutines executing independent partitions
// with one barrier per simulated cycle.
func (d *Design) CompileParallel(opt Options) (*Simulator, error) {
	c, err := d.CompileProgram(opt)
	if err != nil {
		return nil, err
	}
	return c.NewSimulator(), nil
}

// CompileProgram is the compile-for-cache entry point: it runs the full
// partition+replicate+codegen pipeline but stops short of allocating engine
// state, returning the immutable Compiled artifact. CompileParallel is
// CompileProgram + NewSimulator.
func (d *Design) CompileProgram(opt Options) (*Compiled, error) {
	opt.defaults()
	if opt.Threads < 1 {
		return nil, fmt.Errorf("repcut: Threads must be >= 1")
	}
	var (
		specs []sim.PartSpec
		rep   *PartitionReport
	)
	var res *core.Result
	if opt.Threads == 1 {
		specs = sim.SerialSpec(d.Graph)
		rep = &PartitionReport{Threads: 1}
	} else {
		var err error
		res, rep, err = d.partition(opt, nil)
		if err != nil {
			return nil, err
		}
		specs = partSpecs(res)
	}
	p, err := sim.Compile(d.Graph, specs, sim.Config{OptLevel: opt.OptLevel, Workers: opt.Workers})
	if err != nil {
		return nil, err
	}
	// Profile-guided rebalance: measure the per-thread eval+commit phase
	// times of the program just compiled, convert them into weight scales
	// relative to the cost model's prediction, and repartition+recompile
	// once with the measured weights. The feedback only reshapes the
	// partitioner's proxy weights, so the rebalanced program simulates the
	// same design — state hashes match the unprofiled compile.
	if opt.Profile && opt.Threads > 1 {
		cycles := opt.ProfileCycles
		if cycles <= 0 {
			cycles = 64
		}
		samples := sim.NewEngine(p).RunProfiled(cycles)
		measured := make([]float64, opt.Threads)
		for _, row := range samples {
			for t := range row {
				measured[t] += float64(row[t].Eval + row[t].Update)
			}
		}
		predicted := make([]float64, opt.Threads)
		for t := range p.Threads {
			measured[t] /= float64(cycles)
			predicted[t] = float64(p.Threads[t].CostUnits)
		}
		pf := &core.ProfileFeedback{
			PartOfSink: res.PartOfSink,
			Scales:     costmodel.ProfileScales(measured, predicted),
		}
		res2, rep2, err := d.partition(opt, pf)
		if err != nil {
			return nil, err
		}
		specs2 := partSpecs(res2)
		p2, err := sim.Compile(d.Graph, specs2, sim.Config{OptLevel: opt.OptLevel, Workers: opt.Workers})
		if err != nil {
			return nil, err
		}
		rep, specs, p = rep2, specs2, p2
	}
	// Link eagerly: the Compiled artifact is the unit the service cache
	// shares across sessions, so building the linked execution form here
	// means every NewSimulator reuses it, and Program.MemBytes (the cache's
	// LRU charge) is stable and includes the linked bytes.
	p.Linked()
	c := &Compiled{Program: p, Report: rep, Backend: opt.Backend}
	if opt.Verify || opt.Validate {
		c.Verification = verify.Program(p, verify.Options{
			Graph: d.Graph, Parts: specs, Validate: opt.Validate,
		})
		if err := c.Verification.Err(); err != nil {
			return nil, err
		}
	}
	// Native backend: build (or fetch) the compiled kernel now, so every
	// simulator over this Compiled shares it. Any failure — unsupported
	// platform, artifact store trouble, build error — degrades to the
	// linked interpreter instead of failing compilation.
	if opt.Backend == BackendNative {
		if store, err := codegen.Shared(opt.Artifacts); err != nil {
			c.NativeErr = err
		} else if k, err := store.Kernel(p, codegen.EmitOptions{}); err != nil {
			c.NativeErr = err
		} else {
			c.Native = k
		}
	}
	return c, nil
}
