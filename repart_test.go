package repcut

// Repartitioning acceptance at the facade level: dereplication and k-way
// refinement reshape which thread computes what, but architectural state
// must be untouched — the name-keyed StateHash of a refined+dereplicated
// simulator equals the unrefined one's, on the linked interpreter and on
// the native compiled kernel alike.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cgraph"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/designs"
	"repro/internal/sim"
)

// buildDesign elaborates a bundled design by name.
func buildDesign(t *testing.T, name string) *cgraph.Graph {
	t.Helper()
	cfg, err := designs.ParseName(name)
	if err != nil {
		t.Fatal(err)
	}
	g, err := designs.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// compileParts partitions g with explicit core options — the facade always
// refines and dereplicates, so the reference pipelines are built here — and
// compiles the result for the linked engine.
func compileParts(t *testing.T, g *cgraph.Graph, opt core.Options) (*core.Result, *Simulator) {
	t.Helper()
	opt.Seed, opt.Model = 1, costmodel.Default()
	res, err := core.Partition(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sim.Compile(g, PartSpecs(res), sim.Config{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	return res, &Simulator{Engine: sim.NewEngine(p)}
}

// runHash drives a simulator with a seeded input stream and returns the
// architectural state hash after the last cycle.
func runHash(t *testing.T, s *Simulator, cycles int, seed int64) uint64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for c := 0; c < cycles; c++ {
		for _, in := range s.Program().Inputs {
			if in.Width > 64 {
				continue
			}
			if err := s.PokeInput(in.Name, rng.Uint64()); err != nil {
				t.Fatal(err)
			}
		}
		s.Run(1)
	}
	return s.StateHash()
}

// TestProfileRebalanceKeepsState runs the profile-guided rebalance loop —
// compile, measure per-thread phase times, repartition with measured
// weights, recompile — and proves the rebalanced simulator computes the
// same design: identical state hash to the unprofiled compile.
func TestProfileRebalanceKeepsState(t *testing.T) {
	g, err := designs.Build(designs.Config{Kind: designs.Rocket, Cores: 1, Scale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	d := &Design{Graph: g}
	plain, err := d.CompileProgram(Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	pgo, err := d.CompileProgram(Options{Threads: 4, Profile: true, ProfileCycles: 32})
	if err != nil {
		t.Fatal(err)
	}
	if !pgo.Report.Profiled {
		t.Fatal("profile compile did not record a rebalance")
	}
	const cycles, seed = 60, 17
	want := runHash(t, plain.NewSimulator(), cycles, seed)
	if got := runHash(t, pgo.NewSimulator(), cycles, seed); got != want {
		t.Fatalf("profile-rebalanced state hash diverges: %016x vs %016x", got, want)
	}
}

// TestRepartitionedStateHashAcrossBackends compiles RocketChip-1C at 16
// threads four ways — {derep, no-derep} × {linked, native} — and demands
// one state hash from all of them. The derep compile must actually demote
// registers, or the equality proves nothing.
func TestRepartitionedStateHashAcrossBackends(t *testing.T) {
	g := buildDesign(t, "RocketChip-1C")
	d := &Design{Graph: g}

	const cycles, seed = 100, 41
	_, plain := compileParts(t, g, core.Options{K: 16})
	derep, err := d.CompileProgram(Options{Threads: 16, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if derep.Report.DerepGroups == 0 {
		t.Fatal("derep compile demoted nothing; the hash comparison proves nothing")
	}
	want := runHash(t, plain, cycles, seed)
	if got := runHash(t, derep.NewSimulator(), cycles, seed); got != want {
		t.Fatalf("linked state hash diverges: derep %016x, plain %016x", got, want)
	}

	native, err := d.CompileProgram(Options{Threads: 16, Backend: BackendNative, Artifacts: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if native.Native == nil {
		t.Skipf("native backend unavailable: %v", native.NativeErr)
	}
	if native.Report.DerepGroups == 0 {
		t.Fatal("native derep compile demoted nothing")
	}
	s := native.NewSimulator()
	if s.Backend != BackendNative {
		t.Fatalf("simulator fell back to %s", s.Backend)
	}
	if got := runHash(t, s, cycles, seed); got != want {
		t.Fatalf("native state hash diverges: derep-native %016x, plain-linked %016x", got, want)
	}
}

// TestRepartGates holds the two gates every change to the repartitioner
// must pass on real designs: k-way refinement + dereplication never
// replicate more than the raw recursive bisection they start from, and the
// two programs compute the same architectural state.
func TestRepartGates(t *testing.T) {
	for _, name := range []string{"RocketChip-1C", "SmallBOOM-1C"} {
		g := buildDesign(t, name)
		for _, k := range []int{8, 16} {
			t.Run(fmt.Sprintf("%s/k%d", name, k), func(t *testing.T) {
				base, unrefined := compileParts(t, g, core.Options{K: k, NoRefine: true})
				res, refined := compileParts(t, g, core.Options{K: k, Derep: true})
				if res.ReplicationCost > base.ReplicationCost+1e-9 {
					t.Errorf("refinement increased the replication factor: %.4f > %.4f",
						1+res.ReplicationCost, 1+base.ReplicationCost)
				}
				const cycles, seed = 500, 7
				want := runHash(t, unrefined, cycles, seed)
				if got := runHash(t, refined, cycles, seed); got != want {
					t.Errorf("state hash diverged after %d cycles: refined %016x, unrefined %016x",
						cycles, got, want)
				}
			})
		}
	}
}
