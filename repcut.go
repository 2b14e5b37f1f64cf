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
	"path/filepath"

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

// Options configure parallel compilation.
type Options struct {
	// Threads is the partition count (required, >= 1).
	Threads int
	// Epsilon is the balance tolerance (<= 0 means
	// hypergraph.DefaultEpsilon, 0.03).
	Epsilon float64
	// Seed makes partitioning deterministic (default 1).
	Seed int64
	// Unweighted disables the simulation cost model ("RepCut UW").
	Unweighted bool
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
}

func (o *Options) defaults() {
	if o.Seed == 0 {
		o.Seed = 1
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
}

// Partition runs the replication-aided partitioner without compiling.
func (d *Design) Partition(opt Options) (*core.Result, *PartitionReport, error) {
	opt.defaults()
	model := costmodel.Default()
	if opt.Unweighted {
		model = costmodel.Unweighted()
	}
	res, err := core.Partition(d.Graph, core.Options{
		K: opt.Threads, Epsilon: opt.Epsilon, Seed: opt.Seed, Model: model, Derep: true,
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
}

// UseNative attaches a native kernel to the simulator: it emits each
// thread's linked stream as Go source, builds it out of process into a
// plugin (internal/codegen) or fetches it from the artifact store at
// artifacts (empty: the per-user default under the system temp dir, so
// repeated runs share warm artifacts), and installs it. The swap is
// state-preserving. A non-nil error (plugins unsupported on this platform,
// store trouble, a failed build) leaves the simulator on the linked
// executor; NativeInstalled reports which one runs.
func (s *Simulator) UseNative(artifacts string) error {
	if artifacts == "" {
		artifacts = filepath.Join(codegen.DefaultBaseDir(), "store")
	}
	store, err := codegen.Open(artifacts, 0)
	if err != nil {
		return err
	}
	defer store.Close()
	k, err := store.Kernel(s.Program(), codegen.EmitOptions{})
	if err != nil {
		return err
	}
	return s.InstallNative(k.Threads)
}

// optLevel is the stream optimization every pipeline compile runs:
// constant folding and copy aliasing as the code is emitted, then one
// sweep that drops dead temps and fuses sink copies (sim.Config).
const optLevel = 2

// CompileSerial builds the single-threaded (ESSENT-style) simulator.
func (d *Design) CompileSerial() (*Simulator, error) {
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
}

// NewSimulator creates an independent simulator over a compiled program.
// Engines share the (read-only) program but nothing else, so any number of
// concurrent sessions can run off one Compiled.
func (c *Compiled) NewSimulator() *Simulator {
	return &Simulator{Engine: sim.NewEngine(c.Program), Report: c.Report, Verification: c.Verification}
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
	var specs []sim.PartSpec
	rep := &PartitionReport{Threads: 1}
	if opt.Threads == 1 {
		specs = sim.SerialSpec(d.Graph)
	} else {
		res, r, err := d.Partition(opt)
		if err != nil {
			return nil, err
		}
		specs, rep = PartSpecs(res), r
	}
	p, err := sim.Compile(d.Graph, specs, sim.Config{OptLevel: optLevel})
	if err != nil {
		return nil, err
	}
	c := &Compiled{Program: p, Report: rep}
	if opt.Verify || opt.Validate {
		c.Verification = verify.Program(p, verify.Options{
			Graph: d.Graph, Parts: specs, Validate: opt.Validate,
		})
		if err := c.Verification.Err(); err != nil {
			return nil, err
		}
	}
	return c, nil
}
