package hypergraph

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randomH builds a seeded random hypergraph for the invariant tests.
func randomH(seed int64, n, ne int) *H {
	rng := rand.New(rand.NewSource(seed))
	w := make([]int64, n)
	for i := range w {
		w[i] = int64(1 + rng.Intn(7))
	}
	h := New(w)
	for e := 0; e < ne; e++ {
		sz := 2 + rng.Intn(4)
		pins := make([]int32, sz)
		for i := range pins {
			pins[i] = int32(rng.Intn(n))
		}
		h.AddEdge(int64(1+rng.Intn(5)), pins)
	}
	h.Finish()
	return h
}

// KWayRefine must (1) never finish a pass with negative net gain, (2) report
// exactly the cut reduction Evaluate sees, and (3) never move weight into a
// part beyond the (1+ε)·avg bound.
func TestKWayRefineInvariants(t *testing.T) {
	for _, seed := range []int64{1, 7, 23, 101} {
		for _, k := range []int{2, 3, 5, 8} {
			h := randomH(seed, 60+int(seed)%50, 240)
			// Start from the recursive-bisection result without cleanup.
			r, err := Partition(h, Options{K: k, Epsilon: 0.1, Seed: seed, SkipKWay: true})
			if err != nil {
				t.Fatalf("seed=%d k=%d: %v", seed, k, err)
			}
			part := append([]int32(nil), r.Part...)
			before := Evaluate(h, k, part).CutKm1
			eps := 0.1
			st := KWayRefine(h, k, part, KWayOptions{Epsilon: eps})
			after := Evaluate(h, k, part)
			if st.Gain < 0 {
				t.Fatalf("seed=%d k=%d: negative net gain %d", seed, k, st.Gain)
			}
			if before-after.CutKm1 != st.Gain {
				t.Fatalf("seed=%d k=%d: reported gain %d, actual %d",
					seed, k, st.Gain, before-after.CutKm1)
			}
			bound := int64(math.Ceil(float64(h.TotalVWeight()) / float64(k) * (1 + eps)))
			for p, pw := range after.PartWeights {
				if pw > bound && pw > r.PartWeights[p] {
					t.Fatalf("seed=%d k=%d: part %d grew to %d, over bound %d",
						seed, k, p, pw, bound)
				}
			}
		}
	}
}

// The k-way pass must find gains recursive bisection structurally misses:
// a vertex placed by an early bisection branch whose edges all lead to a
// part created in the other branch.
func TestKWayRefineImproves(t *testing.T) {
	// Three blocks, but the middle block's vertices are each tied to block
	// 0 and block 2 with asymmetric weights; a 3-way assignment that puts a
	// heavy-tied vertex on the wrong side is fixable only by direct k-way
	// moves.
	h := randomH(5, 90, 400)
	k := 6
	r, err := Partition(h, Options{K: k, Epsilon: 0.1, Seed: 5, SkipKWay: true})
	if err != nil {
		t.Fatal(err)
	}
	part := append([]int32(nil), r.Part...)
	st := KWayRefine(h, k, part, KWayOptions{Epsilon: 0.1})
	if st.Gain <= 0 {
		t.Fatalf("k-way refinement found no gain over raw recursive bisection (gain=%d)", st.Gain)
	}
	refined, err := Partition(h, Options{K: k, Epsilon: 0.1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if refined.CutKm1 > r.CutKm1 {
		t.Fatalf("Partition with k-way cleanup worsened cut: %d > %d", refined.CutKm1, r.CutKm1)
	}
}

// The planted gain-sign defect must be live: with BugGainSign the pass
// applies cut-increasing moves, so the cut gets strictly worse on a graph
// where the clean pass finds real gains.
func TestKWayBugGainSignLive(t *testing.T) {
	h := randomH(5, 90, 400)
	k := 6
	r, err := Partition(h, Options{K: k, Epsilon: 0.1, Seed: 5, SkipKWay: true})
	if err != nil {
		t.Fatal(err)
	}
	part := append([]int32(nil), r.Part...)
	KWayRefine(h, k, part, KWayOptions{Epsilon: 0.1, BugGainSign: true})
	buggy := Evaluate(h, k, part).CutKm1
	if buggy <= r.CutKm1 {
		t.Fatalf("BugGainSign pass did not worsen the cut (%d <= %d); the mutation is dead",
			buggy, r.CutKm1)
	}
}

// Seeded invariant sweep (satellite of the repartitioning PR): with the
// k-way stage in the default pipeline, partitions must stay bit-identical
// across GOMAXPROCS {1,2,8}, respect the balance bound, and never come
// out worse than the unrefined assignment.
func TestKWayWorkerEquivalence(t *testing.T) {
	for _, seed := range []int64{3, 19} {
		h := randomH(seed, 200, 700)
		for _, k := range []int{4, 8} {
			setProcs(t, 1)
			base, err := Partition(h, Options{K: k, Epsilon: 0.08, Seed: seed})
			if err != nil {
				t.Fatalf("seed=%d k=%d serial: %v", seed, k, err)
			}
			unref, err := Partition(h, Options{K: k, Epsilon: 0.08, Seed: seed, SkipKWay: true})
			if err != nil {
				t.Fatal(err)
			}
			if base.CutKm1 > unref.CutKm1 {
				t.Fatalf("seed=%d k=%d: refined cut %d worse than unrefined %d",
					seed, k, base.CutKm1, unref.CutKm1)
			}
			for _, procs := range []int{2, 8} {
				setProcs(t, procs)
				got, err := Partition(h, Options{K: k, Epsilon: 0.08, Seed: seed})
				if err != nil {
					t.Fatalf("seed=%d k=%d GOMAXPROCS=%d: %v", seed, k, procs, err)
				}
				if !reflect.DeepEqual(base.Part, got.Part) {
					t.Fatalf("seed=%d k=%d GOMAXPROCS=%d: partition differs from serial", seed, k, procs)
				}
			}
		}
	}
}
