package difftest

// Checkpoint-column tests: the clean column must pass over a corpus of
// generated circuits, a planted snapshot corruption must be caught (the
// column can actually fail), and truncated or bit-flipped wire blobs must
// be rejected at decode time rather than restoring silently wrong state.

import (
	"testing"

	"repro/internal/codegen"
	"repro/internal/genckt"
	"repro/internal/sim"
)

// ckptOptions is the cheap matrix for checkpoint testing: no partition
// sweeps, no task engines — just the serial pair plus the checkpoint
// column under test.
func ckptOptions(seed int64) Options {
	return Options{Seed: seed, Cycles: 12, Parts: []int{}, Checkpoint: true}
}

func TestCheckpointColumn(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		s := genckt.Generate(genckt.Config{Seed: seed, Size: 30})
		d, err := s.Build()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if m := Run(d, ckptOptions(seed)); m != nil {
			t.Fatalf("seed %d: %v", seed, m)
		}
	}
}

// TestCheckpointCrossBackend restores the snapshot onto a native-kernel
// engine as well: the wire format is backend-portable, not an interpreter
// implementation detail. Skipped where plugins cannot build.
func TestCheckpointCrossBackend(t *testing.T) {
	if err := codegen.Supported(); err != nil {
		t.Skipf("native codegen unsupported here: %v", err)
	}
	s := genckt.Generate(genckt.Config{Seed: 3, Size: 40})
	d, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	opt := ckptOptions(3)
	opt.Codegen = true
	if m := Run(d, opt); m != nil {
		t.Fatal(m)
	}
}

// TestMutationSnapshotTruncation plants the serialization-truncation bug:
// the decoded snapshot loses everything after its first nonzero state word,
// as if the payload had been cut short in flight. The checkpoint column
// must catch the corrupted restore — by the immediate post-restore state
// hash or by divergence within the remaining cycles.
func TestMutationSnapshotTruncation(t *testing.T) {
	mutate := func(s *sim.Snapshot) bool {
		// Memory content first (unambiguously architectural), then the flat
		// word slice (registers and outputs lead it).
		for mi := range s.Mems {
			arr := s.Mems[mi]
			for i, v := range arr {
				if v != 0 {
					for j := i; j < len(arr); j++ {
						arr[j] = 0
					}
					return true
				}
			}
		}
		for i, v := range s.Words {
			if v != 0 {
				for j := i; j < len(s.Words); j++ {
					s.Words[j] = 0
				}
				return true
			}
		}
		return false // nothing nonzero to lose: inapplicable
	}
	for seed := int64(1); seed <= 25; seed++ {
		s := genckt.Generate(genckt.Config{Seed: seed, Size: 30})
		d, err := s.Build()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		opt := ckptOptions(seed)
		opt.MutateSnapshot = mutate
		m := Run(d, opt)
		if m == nil {
			continue // truncation silent on this circuit (all-zero tail)
		}
		if m.Engine != "checkpoint-mutant" {
			t.Fatalf("seed %d: non-mutant engine diverged: %v", seed, m)
		}
		t.Logf("truncation caught at seed %d: %v", seed, m)
		return
	}
	t.Fatal("no seed in 1..25 triggered the snapshot truncation")
}

// TestSnapshotBlobRejects: a blob truncated mid-payload or flipped by one
// bit fails DecodeSnapshot loudly.
func TestSnapshotBlobRejects(t *testing.T) {
	s := genckt.Generate(genckt.Config{Seed: 2, Size: 30})
	d, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := sim.Compile(d.Graph, sim.SerialSpec(d.Graph), sim.Config{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine(p)
	e.Run(4)
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	blob := snap.Encode()
	if _, err := sim.DecodeSnapshot(blob); err != nil {
		t.Fatalf("clean blob rejected: %v", err)
	}
	if _, err := sim.DecodeSnapshot(blob[:len(blob)-9]); err == nil {
		t.Fatal("truncated blob decoded without error")
	}
	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)/2] ^= 0x01
	if _, err := sim.DecodeSnapshot(flipped); err == nil {
		t.Fatal("bit-flipped blob decoded without error")
	}
}
