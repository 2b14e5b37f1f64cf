// Package difftest is a differential oracle over the simulator stack. It
// runs one generated circuit through every execution engine the repo has —
// the tree-walking Reference, the serial linked engine at O0 and O2 (and
// at O2 over the redundant-node-merged graph), RepCut parallel partitions
// at several k, and a compile-cache round-trip through the service layer —
// and compares full architectural state (registers, outputs, every memory
// word) cycle by cycle. Metamorphic invariants (partition-count invariance,
// worker-count invariance, fingerprint stability, verifier agreement) catch
// bugs no single engine pair would expose. A greedy shrinker (shrink.go)
// reduces failing circuits to small replayable FIRRTL.
package difftest

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"

	repcut "repro"
	"repro/internal/bitvec"
	"repro/internal/cgraph"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/genckt"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/verify"
	"repro/internal/verify/tvalid"
)

// Options configures one differential run.
type Options struct {
	// Seed drives the input stimulus stream (not the circuit shape).
	Seed int64
	// Cycles to simulate (default 20).
	Cycles int
	// Parts lists partition counts for the parallel engines (default 3, 5;
	// a count larger than the circuit's sink set is skipped).
	Parts []int
	// Service round-trips the textual IR through the compile cache and
	// checks the cached recompile hits and agrees.
	Service bool
	// Verify runs the static soundness verifier over each parallel
	// program; a verifier rejection is reported as a mismatch.
	Verify bool
	// Validate runs the translation validator (internal/verify/tvalid)
	// over the serial O0/O2 pair and each parallel program, then
	// cross-checks its static verdict against the dynamic oracle's:
	// a certificate for a program the oracle refutes, or a refutation of a
	// program every engine agrees on, is reported as a mismatch either way.
	Validate bool
	// Mutate, when set, is applied to an extra serial O0 program before it
	// joins the engine matrix (mutation testing: the oracle must catch the
	// planted bug). Returning false marks the mutation inapplicable and no
	// mutant engine runs.
	Mutate func(*sim.Program) bool
	// MutateMerge, when set, is applied to the merged-O2 column's freshly
	// built graph just before cgraph.Graph.Merge runs on it (mutation
	// testing: a defect that makes the merge fold vertices computing
	// different values must surface as a state mismatch). Returning false
	// marks the mutation inapplicable and skips the column.
	MutateMerge func(*cgraph.Graph) bool
	// Batch adds the lane-batched engine column: a multi-lane
	// sim.BatchEngine over the linked O2 program, every lane driven with
	// its own distinct input stream and compared full-width (registers,
	// outputs, every memory word) against a private solo-engine twin after
	// every cycle.
	Batch bool
	// BatchLanes overrides the batch column's lane count (default 5 —
	// occupied plus padding lanes inside the engine's one 16-lane column).
	BatchLanes int
	// MutateBatch, when set, is applied to a fresh O2 program that backs
	// the batch engine only; the solo twins keep the clean program, so a
	// live mutation must surface as a batch-column mismatch (proving the
	// column can actually fail). Returning false skips the column.
	MutateBatch func(*sim.Program) bool
	// Codegen adds the native-codegen engine column: the linked O2 program
	// emitted as Go source, built out of process as a plugin through the
	// shared artifact store, and installed on a fresh engine that joins
	// the shared-input matrix. Skipped silently when the platform cannot
	// build or load plugins. Not part of Default — plugin builds are too
	// slow for the fuzz loop (warm artifacts make corpus reruns cheap).
	Codegen bool
	// Checkpoint adds the checkpoint/restore column: the linked O2 engine is
	// snapshotted mid-run, the snapshot round-trips through the binary wire
	// encoding, restores onto a fresh engine — and, when Codegen is on and
	// the platform can build plugins, onto a native-kernel engine too (a
	// cross-backend restore) — and every restored copy must match the
	// original immediately and evolve identically under shared stimulus for
	// the remaining cycles.
	Checkpoint bool
	// MutateSnapshot, when set, corrupts the decoded snapshot before it is
	// restored (mutation testing: the checkpoint column must catch the
	// divergence, or the restore must reject the blob). Returning false
	// marks the mutation inapplicable and skips the column. Implies the
	// checkpoint column.
	MutateSnapshot func(*sim.Snapshot) bool
	// Repart adds the repartitioned-parallel columns: the replication-aware
	// refined + dereplicated partition at each count in Parts, state-compared
	// against the whole matrix, plus a quality gate — when the unrefined
	// partition already fits the balance bound, refinement and dereplication
	// must not increase the replication cost.
	Repart bool
	// RepartBug plants the k-way gain-sign defect into the Repart columns'
	// refinement stage (mutation testing: the quality gate must catch the
	// worsened partition, proving the column live). Implies Repart.
	RepartBug bool
	// ParBug, when non-nil, plants a protocol defect into the par-k
	// columns' engines — (*sim.Engine).PlantDropRemoteWrites (a thread's
	// copy of a memory never sees another thread's writes) or
	// PlantStaleExchange (readers copy in last cycle's remote registers) —
	// for mutation testing: the columns whose subject is the one-barrier
	// protocol must catch it.
	ParBug func(*sim.Engine)
	// CodegenBug plants a deliberate emitter defect into the codegen
	// column's kernel (mutation testing: the matrix must catch it; the
	// solo engines keep the clean program). The bug is part of the
	// artifact key, so buggy and clean kernels never collide in the
	// store. Implies the codegen column.
	CodegenBug codegen.Bug
}

// Default returns the full-matrix options used by the corpus test and CLI.
func Default(seed int64) Options {
	return Options{Seed: seed, Cycles: 20, Service: true, Verify: true, Validate: true, Batch: true, Repart: true, Checkpoint: true}
}

func (o *Options) fill() {
	if o.Cycles <= 0 {
		o.Cycles = 20
	}
	if o.Parts == nil {
		o.Parts = []int{3, 5}
	}
}

// Mismatch describes the first disagreement found. It doubles as an error.
type Mismatch struct {
	Engine string // engine that disagreed with the reference
	Cycle  int    // cycle index at the time of disagreement (-1: static)
	Kind   string // "reg", "output", "mem", "fingerprint", "verify", "validate", "cache", "compile"
	Name   string // signal or memory name (when applicable)
	Addr   int    // memory address (Kind=="mem")
	Got    string
	Want   string
}

func (m *Mismatch) Error() string {
	loc := m.Name
	if m.Kind == "mem" {
		loc = fmt.Sprintf("%s[%d]", m.Name, m.Addr)
	}
	return fmt.Sprintf("difftest: %s cycle %d: %s %s: got %s, want %s",
		m.Engine, m.Cycle, m.Kind, loc, m.Got, m.Want)
}

// namedEngine is one column of the matrix. Peeks return full Vec values so
// wide state is compared exactly, not truncated to 64 bits.
type namedEngine struct {
	name string
	e    *sim.Engine
}

// partition returns the PartSpecs for a k-way cut, or nil if the circuit
// cannot be cut that many ways (skips are not failures: the fuzzer feeds
// arbitrarily small circuits).
func partition(g *cgraph.Graph, k int, seed int64) []sim.PartSpec {
	if len(g.Sinks()) < k {
		return nil
	}
	res, err := core.Partition(g, core.Options{K: k, Seed: seed, Model: costmodel.Default(), Epsilon: 0.1})
	if err != nil {
		return nil
	}
	return repcut.PartSpecs(res)
}

// Run executes the full differential matrix on one design and returns the
// first mismatch, or nil if every engine agreed everywhere.
func Run(d *genckt.Design, opt Options) *Mismatch {
	opt.fill()
	g := d.Graph

	ref := sim.NewReference(g)

	var engines []namedEngine
	addProgram := func(name string, p *sim.Program) {
		engines = append(engines, namedEngine{name, sim.NewEngine(p)})
	}

	// Serial programs, unoptimized (O0) and optimized (O2).
	p0, err := sim.Compile(g, sim.SerialSpec(g), sim.Config{OptLevel: 0})
	if err != nil {
		return &Mismatch{Engine: "serial-O0", Cycle: -1, Kind: "compile", Got: err.Error()}
	}
	addProgram("linked-O0", p0)
	p2, err := sim.Compile(g, sim.SerialSpec(g), sim.Config{OptLevel: 2})
	if err != nil {
		return &Mismatch{Engine: "serial-O2", Cycle: -1, Kind: "compile", Got: err.Error()}
	}
	addProgram("linked-O2", p2)

	// The same circuit through the redundant-node merge repcut.Elaborate
	// applies, compiled at O2. Translation validation compares two streams
	// from one graph and so cannot see a graph rewrite; here the reference
	// keeps the unmerged graph, so every fold is checked against values the
	// merge never touched.
	if d.Text != "" {
		name := "merged-O2"
		if opt.MutateMerge != nil {
			name = "merged-mutant"
		}
		md, err := genckt.FromText(d.Spec, d.Text)
		if err != nil {
			return &Mismatch{Engine: name, Cycle: -1, Kind: "compile", Got: err.Error()}
		}
		if opt.MutateMerge == nil || opt.MutateMerge(md.Graph) {
			md.Graph.Merge()
			pm, err := sim.Compile(md.Graph, sim.SerialSpec(md.Graph), sim.Config{OptLevel: 2})
			if err != nil {
				return &Mismatch{Engine: name, Cycle: -1, Kind: "compile", Got: err.Error()}
			}
			addProgram(name, pm)
		}
	}

	// Translation validation of the serial pair. The verdict is not trusted
	// on its own: validatorCrossCheck reconciles it with what the dynamic
	// engines actually do, so a validator bug in either direction surfaces.
	var cert *tvalid.Result
	if opt.Validate {
		cert = tvalid.Validate(p0, p2, tvalid.Options{Seed: opt.Seed})
	}

	// Metamorphic: recompiling the serial O2 program reproduces it.
	pr, err := sim.Compile(g, sim.SerialSpec(g), sim.Config{OptLevel: 2})
	if err != nil {
		return &Mismatch{Engine: "recompile", Cycle: -1, Kind: "compile", Got: err.Error()}
	}
	if fp, base := pr.Fingerprint(), p2.Fingerprint(); fp != base {
		return &Mismatch{Engine: "recompile", Cycle: -1, Kind: "fingerprint",
			Got: fmt.Sprintf("%#x", fp), Want: fmt.Sprintf("%#x", base)}
	}

	// Parallel engines at several partition counts.
	for _, k := range opt.Parts {
		specs := partition(g, k, opt.Seed+int64(k))
		if specs == nil {
			continue
		}
		pk, err := sim.Compile(g, specs, sim.Config{OptLevel: 2})
		if err != nil {
			return &Mismatch{Engine: fmt.Sprintf("par-k%d", k), Cycle: -1, Kind: "compile", Got: err.Error()}
		}
		if opt.Verify || opt.Validate {
			rep := verify.Program(pk, verify.Options{Graph: g, Parts: specs, Validate: opt.Validate})
			if err := rep.Err(); err != nil {
				kind := "verify"
				if rep.Validation != nil && len(rep.Validation.Divergences) > 0 {
					kind = "validate"
				}
				return &Mismatch{Engine: fmt.Sprintf("par-k%d", k), Cycle: -1, Kind: kind, Got: err.Error()}
			}
		}
		par := sim.NewEngine(pk)
		if opt.ParBug != nil {
			opt.ParBug(par)
		}
		engines = append(engines, namedEngine{fmt.Sprintf("par-k%d", k), par})
	}

	// Repartitioned parallel engines: replication-aware k-way refinement
	// plus the dereplication post-pass, at the same counts, against the
	// plain columns above. The quality gate compares against an unrefined
	// cut of the same hypergraph; it only binds when the unrefined
	// assignment already fits the balance bound (otherwise refinement is
	// allowed to trade cut for balance repair).
	if opt.Repart || opt.RepartBug {
		const eps = 0.1
		for _, k := range opt.Parts {
			if len(g.Sinks()) < k {
				continue
			}
			seed := opt.Seed + int64(k)
			name := fmt.Sprintf("repart-k%d", k)
			unref, err := core.Partition(g, core.Options{
				K: k, Seed: seed, Model: costmodel.Default(), Epsilon: eps, NoRefine: true})
			if err != nil {
				continue
			}
			refined, err := core.Partition(g, core.Options{
				K: k, Seed: seed, Model: costmodel.Default(), Epsilon: eps,
				Derep: true, RefineBug: opt.RepartBug})
			if err != nil {
				return &Mismatch{Engine: name, Cycle: -1, Kind: "compile", Got: err.Error()}
			}
			if unref.ImbalanceExcl <= eps && refined.ReplicationCost > unref.ReplicationCost+1e-9 {
				return &Mismatch{Engine: name, Cycle: -1, Kind: "quality",
					Got:  fmt.Sprintf("replication cost %.6f after refinement+derep", refined.ReplicationCost),
					Want: fmt.Sprintf("<= unrefined %.6f", unref.ReplicationCost)}
			}
			// Under RepartBug the column regrades against a clean repartition
			// of the same graph — a planted refinement defect must not slip
			// past just because even a damaged cut beats raw bisection.
			if opt.RepartBug {
				clean, err := core.Partition(g, core.Options{
					K: k, Seed: seed, Model: costmodel.Default(), Epsilon: eps, Derep: true})
				if err == nil && refined.ReplicationCost > clean.ReplicationCost+1e-9 {
					return &Mismatch{Engine: name, Cycle: -1, Kind: "quality",
						Got:  fmt.Sprintf("replication cost %.6f with planted defect", refined.ReplicationCost),
						Want: fmt.Sprintf("<= clean %.6f", clean.ReplicationCost)}
				}
			}
			specs := repcut.PartSpecs(refined)
			pk, err := sim.Compile(g, specs, sim.Config{OptLevel: 2})
			if err != nil {
				return &Mismatch{Engine: name, Cycle: -1, Kind: "compile", Got: err.Error()}
			}
			if opt.Verify {
				rep := verify.Program(pk, verify.Options{Graph: g, Parts: specs})
				if err := rep.Err(); err != nil {
					return &Mismatch{Engine: name, Cycle: -1, Kind: "verify", Got: err.Error()}
				}
			}
			addProgram(name, pk)
		}
	}

	// Compile-cache round trip: the service layer reparses the printed IR,
	// elaborates it (merge included), compiles, caches, and the second
	// request must hit with an identical fingerprint.
	if opt.Service && d.Text != "" {
		cache := service.NewCache(1<<30, 64, nil)
		req := service.CompileRequest{Source: d.Text, Threads: 3, Seed: opt.Seed}
		e1, hit1, err := cache.GetOrCompile(req)
		if err != nil {
			return &Mismatch{Engine: "service", Cycle: -1, Kind: "compile", Got: err.Error()}
		}
		if hit1 {
			return &Mismatch{Engine: "service", Cycle: -1, Kind: "cache", Got: "hit", Want: "miss on first compile"}
		}
		e2, hit2, err := cache.GetOrCompile(req)
		if err != nil {
			return &Mismatch{Engine: "service", Cycle: -1, Kind: "compile", Got: err.Error()}
		}
		if !hit2 {
			return &Mismatch{Engine: "service", Cycle: -1, Kind: "cache", Got: "miss", Want: "hit on recompile"}
		}
		if e1.Fingerprint != e2.Fingerprint {
			return &Mismatch{Engine: "service", Cycle: -1, Kind: "fingerprint",
				Got: fmt.Sprintf("%#x", e2.Fingerprint), Want: fmt.Sprintf("%#x", e1.Fingerprint)}
		}
		addProgram("service", e1.Compiled.Program)
	}

	// Mutation hook: plant a bug into a fresh O0 program and let the
	// matrix catch it.
	if opt.Mutate != nil {
		pm, err := sim.Compile(g, sim.SerialSpec(g), sim.Config{OptLevel: 0})
		if err != nil {
			return &Mismatch{Engine: "mutant", Cycle: -1, Kind: "compile", Got: err.Error()}
		}
		if opt.Mutate(pm) {
			addProgram("mutant", pm)
		}
	}

	// Native-codegen engine: the linked O2 program compiled out of process
	// to a plugin kernel and installed on a fresh engine. Joins the shared
	// matrix like any other engine, so a miscompiled kernel (or a planted
	// CodegenBug) surfaces as an ordinary state mismatch.
	if opt.Codegen || opt.CodegenBug != codegen.BugNone {
		e, name, m := codegenEngine(p2, opt)
		if m != nil {
			return m
		}
		if e != nil {
			engines = append(engines, namedEngine{name, e})
		}
	}

	// Drive all engines with identical stimulus and compare full state
	// after every cycle.
	rng := rand.New(rand.NewSource(opt.Seed))
	inputs := make([]*cgraph.Vertex, len(g.Inputs))
	for i, vi := range g.Inputs {
		inputs[i] = &g.Vs[vi]
	}
	for cyc := 0; cyc < opt.Cycles; cyc++ {
		for _, in := range inputs {
			w := bitvec.New(in.Type.Width)
			for j := range w.Words {
				w.Words[j] = rng.Uint64()
			}
			w = bitvec.ZeroExtend(in.Type.Width, w)
			if err := ref.PokeInput(in.Name, w); err != nil {
				return &Mismatch{Engine: "reference", Cycle: cyc, Kind: "compile", Name: in.Name, Got: err.Error()}
			}
			for _, ne := range engines {
				if err := ne.e.PokeInputVec(in.Name, w); err != nil {
					return &Mismatch{Engine: ne.name, Cycle: cyc, Kind: "compile", Name: in.Name, Got: err.Error()}
				}
			}
		}
		ref.Step()
		for _, ne := range engines {
			ne.e.Run(1)
		}
		for _, ne := range engines {
			if m := compareState(g, refPeeker(ref), enginePeeker(ne.e), ne.name, cyc); m != nil {
				return validatorCrossCheck(cert, m)
			}
		}
	}

	// Lane-batched engine column: per-lane distinct stimulus, so it runs
	// its own loop against solo twins rather than joining the shared-input
	// matrix above.
	if opt.Batch || opt.MutateBatch != nil {
		if m := runBatchColumn(g, p2, opt); m != nil {
			return m
		}
	}

	// Checkpoint/restore column: snapshot mid-run, wire round-trip, restore,
	// and the copies must stay bit-identical. Runs its own split-phase loop,
	// so it lives outside the shared-input matrix above.
	if opt.Checkpoint || opt.MutateSnapshot != nil {
		if m := runCheckpointColumn(g, p2, opt); m != nil {
			return m
		}
	}
	return validatorCrossCheck(cert, nil)
}

// validatorCrossCheck reconciles the translation validator's static verdict
// with the dynamic oracle's. Both directions of disagreement are bugs: a
// refutation of a program every engine agrees on is a validator false
// alarm, and a certificate for the linked-O2 program the oracle just caught
// diverging is a validator false negative — the worse failure, since in
// production it would wave a miscompile through.
func validatorCrossCheck(cert *tvalid.Result, m *Mismatch) *Mismatch {
	if cert == nil {
		return m
	}
	if m == nil {
		if err := cert.Err(); err != nil {
			return &Mismatch{Engine: "tvalid", Cycle: -1, Kind: "validate",
				Got:  err.Error(),
				Want: "equivalence certificate (dynamic oracle found no divergence)"}
		}
		return nil
	}
	if m.Engine == "linked-O2" && cert.Valid() {
		return &Mismatch{Engine: "tvalid", Cycle: m.Cycle, Kind: "validate", Name: m.Name,
			Got: "equivalence certificate", Want: "refutation: " + m.Error()}
	}
	return m
}

// codegenEngine builds the native-codegen column's engine. A nil engine
// with a nil mismatch means the column is inapplicable here: the platform
// cannot build or load plugins, or the requested planted bug has no site
// on this circuit (both are skips, not failures — mutation hunts scan
// many seeds). Kernels come from the per-user artifact store, opened once
// per process, so corpus reruns hit warm artifacts instead of rebuilding.
func codegenEngine(p2 *sim.Program, opt Options) (*sim.Engine, string, *Mismatch) {
	name := "codegen"
	if opt.CodegenBug != codegen.BugNone {
		name = "codegen-mutant"
	}
	if err := codegen.Supported(); err != nil {
		return nil, name, nil
	}
	if opt.CodegenBug != codegen.BugNone {
		if _, err := codegen.Emit(p2, codegen.EmitOptions{Bug: opt.CodegenBug}); err != nil {
			return nil, name, nil // no plantable site on this circuit
		}
	}
	store, err := artifactStore()
	if err != nil {
		return nil, name, &Mismatch{Engine: name, Cycle: -1, Kind: "compile", Got: err.Error()}
	}
	k, err := store.Kernel(p2, codegen.EmitOptions{Bug: opt.CodegenBug})
	if err != nil {
		return nil, name, &Mismatch{Engine: name, Cycle: -1, Kind: "compile", Got: err.Error()}
	}
	e := sim.NewEngine(p2)
	if err := e.InstallNative(k.Threads); err != nil {
		return nil, name, &Mismatch{Engine: name, Cycle: -1, Kind: "compile", Got: err.Error()}
	}
	return e, name, nil
}

// artifactStore is the codegen column's store: the per-user default
// directory, opened on first use and kept for the process.
var artifactStore = sync.OnceValues(func() (*codegen.Store, error) {
	return codegen.Open(filepath.Join(codegen.DefaultBaseDir(), "store"), 0)
})

// runBatchColumn cross-checks the lane-batched executor: an L-lane
// BatchEngine where lane l sees input stream l, against L independent
// solo engines seeing the same per-lane streams. Any divergence between a
// lane and its twin — including cross-lane bleed, since the streams are
// all distinct — is a mismatch. With MutateBatch set the batch side runs
// a deliberately corrupted program while the twins stay clean.
func runBatchColumn(g *cgraph.Graph, p2 *sim.Program, opt Options) *Mismatch {
	lanes := opt.BatchLanes
	if lanes <= 0 {
		lanes = 5
	}
	bp, colName := p2, "batch"
	if opt.MutateBatch != nil {
		pm, err := sim.Compile(g, sim.SerialSpec(g), sim.Config{OptLevel: 2})
		if err != nil {
			return &Mismatch{Engine: "batch-mutant", Cycle: -1, Kind: "compile", Got: err.Error()}
		}
		if !opt.MutateBatch(pm) {
			return nil // mutation inapplicable on this circuit
		}
		bp, colName = pm, "batch-mutant"
	}
	be, err := sim.NewBatchEngine(bp, lanes)
	if err != nil {
		return &Mismatch{Engine: colName, Cycle: -1, Kind: "compile", Got: err.Error()}
	}
	twins := make([]*sim.Engine, lanes)
	rngs := make([]*rand.Rand, lanes)
	for l := range twins {
		twins[l] = sim.NewEngine(p2)
		rngs[l] = rand.New(rand.NewSource(opt.Seed*1_000_003 + int64(l)))
	}
	inputs := make([]*cgraph.Vertex, len(g.Inputs))
	for i, vi := range g.Inputs {
		inputs[i] = &g.Vs[vi]
	}
	laneName := func(l int) string { return fmt.Sprintf("%s-lane%d", colName, l) }
	for cyc := 0; cyc < opt.Cycles; cyc++ {
		for l := 0; l < lanes; l++ {
			for _, in := range inputs {
				w := bitvec.New(in.Type.Width)
				for j := range w.Words {
					w.Words[j] = rngs[l].Uint64()
				}
				w = bitvec.ZeroExtend(in.Type.Width, w)
				if err := be.PokeVec(l, in.Name, w); err != nil {
					return &Mismatch{Engine: laneName(l), Cycle: cyc, Kind: "compile", Name: in.Name, Got: err.Error()}
				}
				if err := twins[l].PokeInputVec(in.Name, w); err != nil {
					return &Mismatch{Engine: laneName(l), Cycle: cyc, Kind: "compile", Name: in.Name, Got: err.Error()}
				}
			}
		}
		be.Run(1)
		for l := 0; l < lanes; l++ {
			twins[l].Run(1)
		}
		for l := 0; l < lanes; l++ {
			if m := compareState(g, enginePeeker(twins[l]), lanePeeker(be, l), laneName(l), cyc); m != nil {
				return m
			}
		}
	}
	return nil
}

// runCheckpointColumn proves session state survives serialization: a
// linked-O2 engine runs the first half of the cycle budget, snapshots,
// the snapshot round-trips through the binary wire encoding, and the
// decoded form restores onto fresh engines — always a second linked
// engine, plus a native-kernel engine when the codegen column is
// available, so the restore is cross-backend. Every copy must match the
// original's architectural state hash immediately after restore and stay
// bit-identical under shared stimulus for the remaining cycles. With
// MutateSnapshot set, the decoded snapshot is corrupted first and the
// column must catch it (a rejection at restore time counts as a catch).
func runCheckpointColumn(g *cgraph.Graph, p2 *sim.Program, opt Options) *Mismatch {
	colName := "checkpoint"
	if opt.MutateSnapshot != nil {
		colName = "checkpoint-mutant"
	}
	k1 := opt.Cycles / 2
	if k1 < 1 {
		k1 = 1
	}
	k2 := opt.Cycles - k1
	if k2 < 1 {
		k2 = 1
	}
	mm := func(cyc int, got, want string) *Mismatch {
		return &Mismatch{Engine: colName, Cycle: cyc, Kind: "checkpoint", Got: got, Want: want}
	}
	primary := sim.NewEngine(p2)
	inputs := make([]*cgraph.Vertex, len(g.Inputs))
	for i, vi := range g.Inputs {
		inputs[i] = &g.Vs[vi]
	}
	rng := rand.New(rand.NewSource(opt.Seed*7_368_787 + 5))
	drive := func(engines []*sim.Engine, cyc int) *Mismatch {
		for _, in := range inputs {
			w := bitvec.New(in.Type.Width)
			for j := range w.Words {
				w.Words[j] = rng.Uint64()
			}
			w = bitvec.ZeroExtend(in.Type.Width, w)
			for _, e := range engines {
				if err := e.PokeInputVec(in.Name, w); err != nil {
					return mm(cyc, err.Error(), "poke "+in.Name)
				}
			}
		}
		for _, e := range engines {
			e.Run(1)
		}
		return nil
	}
	for cyc := 0; cyc < k1; cyc++ {
		if m := drive([]*sim.Engine{primary}, cyc); m != nil {
			return m
		}
	}
	snap, err := primary.Snapshot()
	if err != nil {
		return mm(k1, err.Error(), "snapshot at cycle boundary")
	}
	dec, err := sim.DecodeSnapshot(snap.Encode())
	if err != nil {
		return mm(k1, err.Error(), "wire round-trip to decode")
	}
	if opt.MutateSnapshot != nil && !opt.MutateSnapshot(dec) {
		return nil // mutation inapplicable on this circuit's state
	}
	restored := sim.NewEngine(p2)
	if err := restored.RestoreSnapshot(dec); err != nil {
		if opt.MutateSnapshot != nil {
			// The corrupted blob was rejected at the door — a catch.
			return mm(k1, err.Error(), "mutated snapshot caught")
		}
		return mm(k1, err.Error(), "restore on fresh engine")
	}
	cohort := []*sim.Engine{restored}
	if opt.Codegen && codegen.Supported() == nil {
		copt := opt
		copt.CodegenBug = codegen.BugNone
		ne, _, m := codegenEngine(p2, copt)
		if m != nil {
			return m
		}
		if ne != nil {
			if err := ne.RestoreSnapshot(dec); err != nil {
				if opt.MutateSnapshot != nil {
					return mm(k1, err.Error(), "mutated snapshot caught")
				}
				return mm(k1, err.Error(), "cross-backend restore on native engine")
			}
			cohort = append(cohort, ne)
		}
	}
	want := primary.StateHash()
	for _, e := range cohort {
		if got := e.StateHash(); got != want {
			return mm(k1, fmt.Sprintf("state hash %#x after restore", got), fmt.Sprintf("%#x", want))
		}
	}
	all := append([]*sim.Engine{primary}, cohort...)
	for cyc := k1; cyc < k1+k2; cyc++ {
		if m := drive(all, cyc); m != nil {
			return m
		}
		for _, e := range cohort {
			if got := e.StateHash(); got != primary.StateHash() {
				return mm(cyc, fmt.Sprintf("state hash %#x", got),
					fmt.Sprintf("%#x (restored copy diverged from original)", primary.StateHash()))
			}
		}
	}
	// Full-width architectural comparison at the end, beyond the 64-bit
	// hash: every register, output, and memory word.
	for _, e := range cohort {
		if m := compareState(g, enginePeeker(primary), enginePeeker(e), colName, k1+k2-1); m != nil {
			return m
		}
	}
	return nil
}

// peeker reads one simulator's architectural state at full width: the
// reference, an engine, or one lane of a batch engine.
type peeker struct {
	reg func(name string) (bitvec.Vec, error)
	out func(name string) (bitvec.Vec, error)
	mem func(name string, addr int) (bitvec.Vec, error)
}

func refPeeker(r *sim.Reference) peeker { return peeker{r.PeekReg, r.PeekOutput, r.PeekMem} }

func enginePeeker(e *sim.Engine) peeker { return peeker{e.PeekReg, e.PeekOutputVec, e.PeekMemVec} }

func lanePeeker(be *sim.BatchEngine, lane int) peeker {
	return peeker{
		reg: func(name string) (bitvec.Vec, error) { return be.PeekReg(lane, name) },
		out: func(name string) (bitvec.Vec, error) { return be.PeekVec(lane, name) },
		mem: func(name string, addr int) (bitvec.Vec, error) { return be.PeekMemVec(lane, name, addr) },
	}
}

// compareState checks got against want: every register, every output,
// every word of every memory, full width. Names want cannot read are
// skipped; a failed read on got is a mismatch.
func compareState(g *cgraph.Graph, want, got peeker, name string, cyc int) *Mismatch {
	check := func(kind, sig string, addr int, read func(p peeker) (bitvec.Vec, error)) *Mismatch {
		wv, err := read(want)
		if err != nil {
			return nil
		}
		gv, err := read(got)
		if err == nil && bitvec.Eq(gv, wv) {
			return nil
		}
		gs := gv.String()
		if err != nil {
			gs = err.Error()
		}
		return &Mismatch{Engine: name, Cycle: cyc, Kind: kind, Name: sig, Addr: addr,
			Got: gs, Want: wv.String()}
	}
	for i := range g.Regs {
		sig := g.Regs[i].Name
		if m := check("reg", sig, 0, func(p peeker) (bitvec.Vec, error) { return p.reg(sig) }); m != nil {
			return m
		}
	}
	for _, o := range g.Outputs {
		sig := g.Vs[o].Name
		if m := check("output", sig, 0, func(p peeker) (bitvec.Vec, error) { return p.out(sig) }); m != nil {
			return m
		}
	}
	for mi := range g.Mems {
		sig := g.Mems[mi].Name
		for a := 0; a < g.Mems[mi].Depth; a++ {
			if m := check("mem", sig, a, func(p peeker) (bitvec.Vec, error) { return p.mem(sig, a) }); m != nil {
				return m
			}
		}
	}
	return nil
}
