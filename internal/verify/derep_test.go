package verify

// Shared-read tier tests: the verifier must prove a dereplicated program
// race-free (eval-phase reads of other threads' previous-cycle committed
// slots are the only cross-thread traffic the relaxed tier adds) and must
// reject the two fault classes the tier introduces: a slot that would
// carry the current cycle's value, and a demoted register whose shared slot
// a reader would observe same-cycle. A verifier that accepts these would
// bless the dereplication post-pass vacuously.

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/cgraph"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/designs"
	"repro/internal/sim"
)

// derepFixture is the shared compile of a bundled design on which the
// dereplication post-pass actually fires (RocketChip-1C at k=16 demotes at
// least one register group). Mutation tests must restore anything they
// tamper with.
type derepFixture struct {
	g     *cgraph.Graph
	res   *core.Result
	specs []sim.PartSpec
	p     *sim.Program
	err   error
}

var (
	derepOnce sync.Once
	derepFix  derepFixture
)

func derepProgram(t *testing.T) *derepFixture {
	t.Helper()
	derepOnce.Do(func() {
		cfg, err := designs.ParseName("RocketChip-1C")
		if err != nil {
			derepFix.err = err
			return
		}
		g, err := designs.Build(cfg)
		if err != nil {
			derepFix.err = err
			return
		}
		res, err := core.Partition(g, core.Options{K: 16, Seed: 1, Model: costmodel.Default(), Derep: true})
		if err != nil {
			derepFix.err = err
			return
		}
		specs := partSpecs(res)
		p, err := sim.Compile(g, specs, sim.Config{OptLevel: 2})
		if err != nil {
			derepFix.err = err
			return
		}
		derepFix = derepFixture{g: g, res: res, specs: specs, p: p}
	})
	if derepFix.err != nil {
		t.Fatalf("derep fixture: %v", derepFix.err)
	}
	if len(derepFix.res.Dereps) == 0 {
		t.Fatal("dereplication did not fire on RocketChip-1C k=16; the fixture proves nothing")
	}
	return &derepFix
}

// cloneSpecs deep-copies the vertex and sink lists and the derep groups so
// a mutation cannot leak into the shared fixture.
func cloneSpecs(specs []sim.PartSpec) []sim.PartSpec {
	out := append([]sim.PartSpec(nil), specs...)
	for i := range out {
		out[i].Vertices = slices.Clone(out[i].Vertices)
		out[i].Sinks = slices.Clone(out[i].Sinks)
		ds := append([]cgraph.DerepGroup(nil), out[i].Dereps...)
		for j := range ds {
			ds[j].Regs = append([]int32(nil), ds[j].Regs...)
		}
		out[i].Dereps = ds
	}
	return out
}

// TestDerepCleanVerifies proves the shared-read tier on real compiler
// output: the dereplicated program passes the full scan — linked streams,
// partition cross-check and derep soundness.
func TestDerepCleanVerifies(t *testing.T) {
	f := derepProgram(t)
	rep := Program(f.p, Options{Graph: f.g, Parts: f.specs})
	requireClean(t, rep, "derep clean")
	if !strings.Contains(rep.String(), "race-free") {
		t.Fatalf("unexpected summary: %s", rep.String())
	}
}

// Fault class D1 — current-cycle slot: the group driver is replaced by a
// source vertex (the demoted register's own read), so the owner's commit
// would publish the value the slot itself held this cycle, one cycle
// early. Readers of the shared slot would see time travel.
func TestDerepMutationCurrentCycleSlot(t *testing.T) {
	f := derepProgram(t)
	specs := cloneSpecs(f.specs)
	tampered := false
	for ti := range specs {
		if len(specs[ti].Dereps) == 0 {
			continue
		}
		d := &specs[ti].Dereps[0]
		d.U = f.g.Regs[d.Regs[0]].Read // a source: its value is the previous cycle's
		tampered = true
		break
	}
	if !tampered {
		t.Fatal("fixture has no derep group to tamper with")
	}
	rep := Program(f.p, Options{Graph: f.g, Parts: specs})
	if rep.Err() == nil {
		t.Fatal("source-driver derep group not detected")
	}
	d := findDiag(t, rep, CheckRace)
	if !strings.Contains(d.String(), "one cycle early") && !strings.Contains(d.String(), "driver") {
		t.Fatalf("unexpected diagnostic: %s", d)
	}
}

// Fault class D2 — same-cycle consumer: the group driver is rewired to a
// different vertex the owner computes. The registers' real next-value
// drivers no longer match the committed vertex, so a reader through the
// shared slot would observe a value from the wrong dataflow point — the
// same-cycle hazard the derep rule exists to exclude.
func TestDerepMutationWrongDriver(t *testing.T) {
	f := derepProgram(t)
	specs := cloneSpecs(f.specs)
	tampered := false
	for ti := range specs {
		if len(specs[ti].Dereps) == 0 {
			continue
		}
		d := &specs[ti].Dereps[0]
		for _, vid := range specs[ti].Vertices {
			v := &f.g.Vs[vid]
			if vid != d.U && !v.Kind.IsSource() && v.Type.Width <= 64 {
				d.U = vid
				tampered = true
				break
			}
		}
		break
	}
	if !tampered {
		t.Fatal("owner partition has no alternative narrow vertex to rewire to")
	}
	rep := Program(f.p, Options{Graph: f.g, Parts: specs})
	if rep.Err() == nil {
		t.Fatal("rewired derep driver not detected")
	}
	d := findDiag(t, rep, CheckRace)
	if !strings.Contains(d.String(), "same-cycle") {
		t.Fatalf("unexpected diagnostic: %s", d)
	}
}
