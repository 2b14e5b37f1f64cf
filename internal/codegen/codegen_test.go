package codegen

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/cgraph"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/genckt"
	"repro/internal/sim"
	"repro/internal/verify/tvalid"
)

func buildDesign(t *testing.T, seed int64, size int) *genckt.Design {
	t.Helper()
	d, err := genckt.Generate(genckt.Config{Seed: seed, Size: size}).Build()
	if err != nil {
		t.Fatalf("genckt build (seed %d): %v", seed, err)
	}
	return d
}

// compileK compiles the design serially (k <= 1) or as a k-way RepCut
// partition. Returns nil when the circuit cannot be cut k ways.
func compileK(t *testing.T, d *genckt.Design, k int) *sim.Program {
	t.Helper()
	specs := sim.SerialSpec(d.Graph)
	if k > 1 {
		if len(d.Graph.Sinks()) < k {
			return nil
		}
		res, err := core.Partition(d.Graph, core.Options{K: k, Seed: 7, Model: costmodel.Default(), Epsilon: 0.1})
		if err != nil {
			return nil
		}
		specs = make([]sim.PartSpec, len(res.Parts))
		for i := range res.Parts {
			specs[i] = sim.PartSpec{Vertices: res.Parts[i].Vertices, Sinks: res.Parts[i].Sinks}
		}
	}
	p, err := sim.Compile(d.Graph, specs, sim.Config{OptLevel: 2})
	if err != nil {
		t.Fatalf("compile k=%d: %v", k, err)
	}
	return p
}

// drive pokes the same pseudo-random stimulus into every engine and steps
// them together, returning per-engine state hashes after each cycle.
func drive(t *testing.T, g *cgraph.Graph, engines []*sim.Engine, seed int64, cycles int) [][]uint64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	hashes := make([][]uint64, len(engines))
	for cyc := 0; cyc < cycles; cyc++ {
		for _, vi := range g.Inputs {
			in := &g.Vs[vi]
			w := bitvec.New(in.Type.Width)
			for j := range w.Words {
				w.Words[j] = rng.Uint64()
			}
			w = bitvec.ZeroExtend(in.Type.Width, w)
			for _, e := range engines {
				if err := e.PokeInputVec(in.Name, w); err != nil {
					t.Fatalf("cycle %d: poke %s: %v", cyc, in.Name, err)
				}
			}
		}
		for i, e := range engines {
			e.Run(1)
			hashes[i] = append(hashes[i], e.StateHash())
		}
	}
	return hashes
}

// TestNativeMatchesLinked is the end-to-end pipeline check: emit, build,
// load, install, and cross-check the native kernel against the linked
// interpreter over the same program — full architectural state hash after
// every cycle, serial and 3-way parallel, several circuit shapes.
func TestNativeMatchesLinked(t *testing.T) {
	if err := Supported(); err != nil {
		t.Skipf("native codegen unsupported here: %v", err)
	}
	store, err := Open(t.TempDir(), DefaultBudget)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	for _, tc := range []struct {
		seed int64
		size int
		k    int
	}{
		{seed: 1, size: 40, k: 1},
		{seed: 2, size: 80, k: 1},
		{seed: 3, size: 80, k: 3},
		{seed: 4, size: 120, k: 3},
	} {
		d := buildDesign(t, tc.seed, tc.size)
		p := compileK(t, d, tc.k)
		if p == nil {
			t.Logf("seed %d: skip k=%d (uncuttable)", tc.seed, tc.k)
			continue
		}
		k, err := store.Kernel(p, EmitOptions{})
		if err != nil {
			t.Fatalf("seed %d k=%d: Kernel: %v", tc.seed, tc.k, err)
		}
		if k.Fingerprint != p.Fingerprint() {
			t.Fatalf("seed %d: kernel fingerprint %#x, program %#x", tc.seed, k.Fingerprint, p.Fingerprint())
		}
		linked := sim.NewEngine(p)
		native := sim.NewEngine(p)
		if err := native.InstallNative(k.Threads); err != nil {
			t.Fatalf("seed %d: InstallNative: %v", tc.seed, err)
		}
		if !native.NativeInstalled() {
			t.Fatalf("seed %d: NativeInstalled false after install", tc.seed)
		}
		hashes := drive(t, d.Graph, []*sim.Engine{linked, native}, tc.seed*101, 150)
		for cyc := range hashes[0] {
			if hashes[0][cyc] != hashes[1][cyc] {
				t.Fatalf("seed %d k=%d: state hash diverged at cycle %d: linked %#x native %#x",
					tc.seed, tc.k, cyc, hashes[0][cyc], hashes[1][cyc])
			}
		}
	}
}

// TestHotSwapMidRun installs the native kernel after some interpreted
// cycles and checks the engine's trajectory is unchanged: the kernel
// indexes the same unified state slice evalLinked does, so a swap between
// Run calls must be invisible — on the serial engine and, at an odd cycle
// count, on the two-view parallel engine, where the kernel's first cycle
// runs over the second view.
func TestHotSwapMidRun(t *testing.T) {
	if err := Supported(); err != nil {
		t.Skipf("native codegen unsupported here: %v", err)
	}
	store, err := Open(t.TempDir(), DefaultBudget)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	for _, threads := range []int{1, 2} {
		t.Run(fmt.Sprintf("k=%d", threads), func(t *testing.T) { hotSwapMidRun(t, store, threads) })
	}
}

func hotSwapMidRun(t *testing.T, store *Store, threads int) {
	d := buildDesign(t, 11, 90)
	p := compileK(t, d, threads)
	if p == nil {
		t.Skipf("k=%d: uncuttable", threads)
	}
	k, err := store.Kernel(p, EmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ref := sim.NewEngine(p)
	swp := sim.NewEngine(p)
	g := d.Graph
	rng1 := rand.New(rand.NewSource(77))
	rng2 := rand.New(rand.NewSource(77))
	step := func(e *sim.Engine, rng *rand.Rand) {
		for _, vi := range g.Inputs {
			in := &g.Vs[vi]
			w := bitvec.New(in.Type.Width)
			for j := range w.Words {
				w.Words[j] = rng.Uint64()
			}
			w = bitvec.ZeroExtend(in.Type.Width, w)
			if err := e.PokeInputVec(in.Name, w); err != nil {
				t.Fatal(err)
			}
		}
		e.Run(1)
	}
	for cyc := 0; cyc < 120; cyc++ {
		if cyc == 41 {
			if err := swp.InstallNative(k.Threads); err != nil {
				t.Fatalf("hot swap at cycle %d: %v", cyc, err)
			}
		}
		step(ref, rng1)
		step(swp, rng2)
		if hr, hs := ref.StateHash(), swp.StateHash(); hr != hs {
			t.Fatalf("cycle %d: hot-swapped engine diverged: %#x vs %#x", cyc, hr, hs)
		}
	}
}

// TestPlantedBugDiverges proves the planted emitter bug is live: a kernel
// built with BugCmpInvert must diverge from the linked interpreter on at
// least one of a handful of circuits (structural validation cannot see it
// by design — only dynamic comparison can).
func TestPlantedBugDiverges(t *testing.T) {
	if err := Supported(); err != nil {
		t.Skipf("native codegen unsupported here: %v", err)
	}
	store, err := Open(t.TempDir(), DefaultBudget)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	diverged := false
	for seed := int64(1); seed <= 5 && !diverged; seed++ {
		d := buildDesign(t, seed, 70)
		p := compileK(t, d, 1)
		em, err := Emit(p.Linked(), EmitOptions{Bug: BugCmpInvert})
		if err != nil {
			t.Logf("seed %d: no bug site: %v", seed, err)
			continue
		}
		if em.BugSite == "" {
			t.Fatalf("seed %d: Emit with Bug succeeded but reported no site", seed)
		}
		k, err := store.Kernel(p, EmitOptions{Bug: BugCmpInvert})
		if err != nil {
			t.Fatalf("seed %d: Kernel(bug): %v", seed, err)
		}
		linked := sim.NewEngine(p)
		buggy := sim.NewEngine(p)
		if err := buggy.InstallNative(k.Threads); err != nil {
			t.Fatal(err)
		}
		hashes := drive(t, d.Graph, []*sim.Engine{linked, buggy}, seed*31, 100)
		for cyc := range hashes[0] {
			if hashes[0][cyc] != hashes[1][cyc] {
				t.Logf("seed %d: planted bug caught at cycle %d (site %s)", seed, cyc, em.BugSite)
				diverged = true
				break
			}
		}
	}
	if !diverged {
		t.Fatal("BugCmpInvert kernel never diverged from the linked interpreter: planted bug is dead")
	}
}

// TestEmissionValidates runs the emitter's structural self-check without
// building anything, so it runs on every platform: the emitted record
// stream must validate 1:1 against the linked program, with and without
// the planted bug (which by design changes only printed text, never
// records).
func TestEmissionValidates(t *testing.T) {
	for _, seed := range []int64{1, 5, 9, 13} {
		d := buildDesign(t, seed, 100)
		for _, k := range []int{1, 3} {
			p := compileK(t, d, k)
			if p == nil {
				continue
			}
			lp := p.Linked()
			for _, bug := range []Bug{BugNone, BugDropMask, BugCmpInvert} {
				em, err := Emit(lp, EmitOptions{Bug: bug})
				if err != nil {
					if bug != BugNone {
						continue // no maskable site on this circuit
					}
					t.Fatalf("seed %d k=%d: Emit: %v", seed, k, err)
				}
				res := tvalid.ValidateEmission(lp, em.Records)
				if !res.Valid() {
					t.Fatalf("seed %d k=%d bug=%d: emission invalid:\n%s", seed, k, bug, res.String())
				}
				if em.Threads != p.NumThreads {
					t.Fatalf("seed %d k=%d: emission has %d threads, program %d", seed, k, em.Threads, p.NumThreads)
				}
			}
		}
	}
}

// TestKeySensitivity: the artifact key must separate programs, emitter
// options, and nothing else a same-process rebuild would share.
func TestKeySensitivity(t *testing.T) {
	d1 := buildDesign(t, 21, 50)
	d2 := buildDesign(t, 22, 50)
	p1 := compileK(t, d1, 1)
	p2 := compileK(t, d2, 1)
	k1 := Key(p1, EmitOptions{})
	if k1 == Key(p2, EmitOptions{}) {
		t.Fatal("distinct programs share an artifact key")
	}
	if k1 == Key(p1, EmitOptions{Bug: BugDropMask}) {
		t.Fatal("planted-bug kernel shares the clean kernel's key")
	}
	if k1 != Key(p1, EmitOptions{}) {
		t.Fatal("key is not deterministic")
	}
	if len(k1) != 24 {
		t.Fatalf("key length %d, want 24", len(k1))
	}
}
