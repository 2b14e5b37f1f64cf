package hypergraph

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
)

// pathologicalH builds a seeded random hypergraph with the shapes RePart
// names as partitioner stress: a few huge-fanout nets (300+ distinct pins)
// over a background of small nets, and about one zero-weight vertex in
// eight.
func pathologicalH(seed int64, n, ne, huge int) *H {
	rng := rand.New(rand.NewSource(seed))
	w := make([]int64, n)
	for i := range w {
		if rng.Intn(8) != 0 {
			w[i] = int64(1 + rng.Intn(9))
		}
	}
	h := New(w)
	for e := 0; e < ne; e++ {
		pins := make([]int32, 2+rng.Intn(5))
		for i := range pins {
			pins[i] = int32(rng.Intn(n))
		}
		h.AddEdge(int64(1+rng.Intn(5)), pins)
	}
	for e := 0; e < huge; e++ {
		perm := rng.Perm(n)[:300+rng.Intn(n-300)]
		pins := make([]int32, len(perm))
		for i, v := range perm {
			pins[i] = int32(v)
		}
		h.AddEdge(int64(1+rng.Intn(3)), pins)
	}
	h.Finish()
	return h
}

// TestPartitionGolden pins Partition's output on pathological hypergraphs.
// Refinement speedups (FM's critical-net rule, coarsening's dense ratings)
// must not move a single vertex: the hashes were recorded before them, and
// re-recorded with the same code at 24 initial runs and 6 FM passes when
// those became the partitioner's fixed parameters.
func TestPartitionGolden(t *testing.T) {
	golden := map[int64][3]uint64{ // seed → hash at k = 2, 3, 8
		1: {0x42be484172e99ecf, 0x8f61333306f3fd58, 0x2565566967ef5fc1},
		2: {0xebc652f044a779db, 0xea11792b603991a3, 0x6fd5b303406f2fad},
		3: {0xfe0baaaa48063c16, 0xc6682c4a5bc0fd26, 0xf795878d671fc2f7},
	}
	for seed, want := range golden {
		h := pathologicalH(seed, 450, 1300, 3)
		for i, k := range []int{2, 3, 8} {
			r, err := Partition(h, Options{K: k, Seed: seed})
			if err != nil {
				t.Fatalf("seed=%d k=%d: %v", seed, k, err)
			}
			f := fnv.New64a()
			_ = binary.Write(f, binary.LittleEndian, r.Part)
			_ = binary.Write(f, binary.LittleEndian, r.CutKm1)
			if got := f.Sum64(); got != want[i] {
				t.Errorf("seed=%d k=%d: partition hash %#x (cut %d), want %#x", seed, k, got, r.CutKm1, want[i])
			}
		}
	}
}
