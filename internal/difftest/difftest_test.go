package difftest

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/genckt"
)

// TestOracleCleanOnGeneratedCircuits is the basic sanity claim: with no
// planted bug, the full engine matrix agrees on freshly generated circuits.
func TestOracleCleanOnGeneratedCircuits(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		s := genckt.Generate(genckt.Config{Seed: seed, Size: 45})
		d, err := s.Build()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if m := Run(d, Options{Seed: seed*7 + 1, Cycles: 12, Tasks: true}); m != nil {
			t.Fatalf("seed %d: %v\ncircuit:\n%s", seed, m, d.Text)
		}
	}
}

// The merged-O2 column is live: on most generated circuits the merge
// folds something, and the column runs (and agrees) whether or not it
// does.
func TestMergedColumnLive(t *testing.T) {
	folded := 0
	const circuits = 20
	for seed := int64(1); seed <= circuits; seed++ {
		d, err := genckt.Generate(genckt.Config{Seed: seed, Size: 45}).Build()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if m := Run(d, Options{Seed: seed, Cycles: 12, Parts: []int{}, Workers: []int{}}); m != nil {
			t.Fatalf("seed %d: %v\ncircuit:\n%s", seed, m, d.Text)
		}
		if d.Graph.Merge() > 0 {
			folded++
		}
	}
	if folded < circuits*3/4 {
		t.Fatalf("the merge folded vertices on only %d of %d circuits", folded, circuits)
	}
}

// corpusEntry is one replayable generator configuration.
type corpusEntry struct {
	Seed   int64 `json:"seed"`
	Size   int   `json:"size"`
	Cycles int   `json:"cycles"`
}

// TestDifferentialCorpus deterministically replays the pinned corpus
// through the full matrix (including the service round-trip), plus any
// minimized crashers checked in under testdata/crashers. New crashers
// found by cmd/repcutfuzz land there and become regression tests.
func TestDifferentialCorpus(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "corpus.json"))
	if err != nil {
		t.Fatal(err)
	}
	var corpus []corpusEntry
	if err := json.Unmarshal(raw, &corpus); err != nil {
		t.Fatal(err)
	}
	if len(corpus) == 0 {
		t.Fatal("empty corpus")
	}
	for _, c := range corpus {
		s := genckt.Generate(genckt.Config{Seed: c.Seed, Size: c.Size})
		d, err := s.Build()
		if err != nil {
			t.Fatalf("corpus seed %d: %v", c.Seed, err)
		}
		opt := Default(c.Seed)
		opt.Cycles = c.Cycles
		if m := Run(d, opt); m != nil {
			t.Errorf("corpus seed %d: %v", c.Seed, m)
		}
	}

	crashers, _ := filepath.Glob(filepath.Join("testdata", "crashers", "*.fir"))
	for _, path := range crashers {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		d, err := genckt.FromText(nil, string(src))
		if err != nil {
			t.Errorf("crasher %s no longer parses: %v", filepath.Base(path), err)
			continue
		}
		if m := Run(d, Default(1)); m != nil {
			t.Errorf("crasher %s still fails: %v", filepath.Base(path), m)
		}
	}
}

// TestShrinkReducesCleanPredicate checks the shrinker machinery on a
// synthetic predicate (any circuit that still has a memory "fails"): the
// minimum should be tiny, proving the transformations compose.
func TestShrinkReducesToPredicate(t *testing.T) {
	s := genckt.Generate(genckt.Config{Seed: 7, Size: 50})
	pred := func(d *genckt.Design, cycles int) bool {
		return len(d.Graph.Mems) > 0
	}
	d, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !pred(d, 10) {
		t.Skip("seed produced no memory")
	}
	res := Shrink(s, 10, pred)
	if res == nil {
		t.Fatal("shrink lost the predicate")
	}
	if len(res.Design.Graph.Mems) == 0 {
		t.Fatal("shrunk design lost its memory")
	}
	if nv := res.Design.Graph.NumVertices(); nv > 10 {
		t.Fatalf("mem-only predicate should shrink below 10 vertices, got %d:\n%s",
			nv, res.Design.Text)
	}
}
