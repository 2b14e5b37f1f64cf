package verify

// Partition mutations: verify.Program is the one checker of the partition
// a program was compiled from. Each case corrupts one invariant of the
// dereplicated RocketChip-1C k=16 partition (the program itself stays the
// clean compile) and requires an Error naming it. Together with
// TestDerepMutationWrongDriver these cover every condition the partitioner
// must uphold: no duplicate vertex, every non-source predecessor present
// and earlier, unique sink ownership, every owned sink executed by its
// owner (with closure, that covers every live vertex), derep owners and
// register indices in range, no register demoted twice, and demoted
// register writes neither owned nor executed.

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/cgraph"
	"repro/internal/sim"
)

func TestPartitionMutations(t *testing.T) {
	f := derepProgram(t)
	g := f.g
	owner := -1 // first thread owning a derep group
	for ti := range f.specs {
		if len(f.specs[ti].Dereps) > 0 {
			owner = ti
			break
		}
	}
	if owner < 0 {
		t.Fatal("fixture has no derep group")
	}
	demotedWrite := func(specs []sim.PartSpec) cgraph.VID {
		return g.Regs[specs[owner].Dereps[0].Regs[0]].Write
	}
	// vi is the position in thread 0's list of a vertex with a non-source
	// predecessor, and pi that predecessor's position.
	vi, pi := -1, -1
	pos := map[cgraph.VID]int{}
	for i, v := range f.specs[0].Vertices {
		pos[v] = i
	}
	for i, v := range f.specs[0].Vertices {
		for _, pr := range g.Preds[v] {
			if vi < 0 && !g.Vs[pr].Kind.IsSource() {
				vi, pi = i, pos[pr]
			}
		}
	}
	if vi < 0 {
		t.Fatal("thread 0 has no vertex with a non-source predecessor")
	}
	cases := []struct {
		name   string
		mutate func(specs []sim.PartSpec)
		want   string
	}{
		{"duplicate-vertex", func(s []sim.PartSpec) {
			s[0].Vertices = append(s[0].Vertices, s[0].Vertices[0])
		}, "appears twice"},
		{"missing-predecessor", func(s []sim.PartSpec) {
			s[0].Vertices = slices.Delete(s[0].Vertices, pi, pi+1)
		}, "is not replicated into this partition"},
		{"predecessor-later", func(s []sim.PartSpec) {
			pr := s[0].Vertices[pi]
			s[0].Vertices = slices.Insert(slices.Delete(s[0].Vertices, pi, pi+1), vi, pr)
		}, "not a topological order"},
		{"sink-owned-twice", func(s []sim.PartSpec) {
			s[1].Sinks = append(s[1].Sinks, s[0].Sinks[0])
		}, "also owned by thread 0"},
		{"sink-owned-by-none", func(s []sim.PartSpec) {
			s[0].Sinks = s[0].Sinks[1:]
		}, "owned by no partition"},
		{"sink-not-executed", func(s []sim.PartSpec) {
			s[0].Vertices = slices.DeleteFunc(s[0].Vertices, func(v cgraph.VID) bool { return v == s[0].Sinks[0] })
		}, "not executed by its owner"},
		{"derep-owner-out-of-range", func(s []sim.PartSpec) {
			s[owner].Dereps[0].Owner = int32(len(s))
		}, "records owner"},
		{"derep-register-out-of-range", func(s []sim.PartSpec) {
			s[owner].Dereps[0].Regs[0] = int32(len(g.Regs))
		}, "register index"},
		{"register-demoted-twice", func(s []sim.PartSpec) {
			d := s[owner].Dereps[0]
			d.Regs = slices.Clone(d.Regs)
			s[owner].Dereps = append(s[owner].Dereps, d)
		}, "demoted by two derep groups"},
		{"demoted-write-owned", func(s []sim.PartSpec) {
			s[owner].Sinks = append(s[owner].Sinks, demotedWrite(s))
		}, "still owned as a sink"},
		{"demoted-write-executed", func(s []sim.PartSpec) {
			s[owner].Vertices = append(s[owner].Vertices, demotedWrite(s))
		}, "still executed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			specs := cloneSpecs(f.specs)
			tc.mutate(specs)
			rep := Program(f.p, Options{Graph: g, Parts: specs})
			for _, d := range rep.Diags {
				if d.Severity == Error && strings.Contains(d.Msg, tc.want) {
					return
				}
			}
			t.Fatalf("no error containing %q; report: %s\n%v", tc.want, rep, rep.Err())
		})
	}
}
