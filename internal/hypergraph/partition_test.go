package hypergraph

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

// clique adds pairwise edges over the given vertices.
func clique(h *H, w int64, vs []int32) {
	for i := 0; i < len(vs); i++ {
		for j := i + 1; j < len(vs); j++ {
			h.AddEdge(w, []int32{vs[i], vs[j]})
		}
	}
}

func TestEvaluateKm1(t *testing.T) {
	h := New([]int64{1, 1, 1, 1})
	h.AddEdge(5, []int32{0, 1, 2, 3})
	h.AddEdge(3, []int32{0, 1})
	h.Finish()
	// Parts: {0,1} {2} {3} -> edge0 lambda=3 cost 2*5=10; edge1 lambda=1
	// cost 0.
	r := Evaluate(h, 3, []int32{0, 0, 1, 2})
	if r.CutKm1 != 10 {
		t.Fatalf("CutKm1 = %d, want 10", r.CutKm1)
	}
	if r.Lambda[0] != 3 || r.Lambda[1] != 1 {
		t.Fatalf("lambda = %v", r.Lambda)
	}
	if r.PartWeights[0] != 2 || r.PartWeights[1] != 1 || r.PartWeights[2] != 1 {
		t.Fatalf("weights = %v", r.PartWeights)
	}
}

func TestAddEdgeDedup(t *testing.T) {
	h := New([]int64{1, 1})
	h.AddEdge(1, []int32{0, 0, 1})
	h.AddEdge(1, []int32{1, 1}) // single distinct pin: dropped
	h.Finish()
	if len(h.Edges) != 1 || len(h.Edges[0].Pins) != 2 {
		t.Fatalf("edges = %+v", h.Edges)
	}
}

// Two cliques joined by one light edge: bisection must cut only the bridge.
func TestBisectTwoCliques(t *testing.T) {
	n := 20
	w := make([]int64, n)
	for i := range w {
		w[i] = 1
	}
	h := New(w)
	a := make([]int32, 0, n/2)
	b := make([]int32, 0, n/2)
	for i := 0; i < n/2; i++ {
		a = append(a, int32(i))
		b = append(b, int32(n/2+i))
	}
	clique(h, 10, a)
	clique(h, 10, b)
	h.AddEdge(1, []int32{a[0], b[0]})
	h.Finish()
	r, err := Partition(h, Options{K: 2, Epsilon: 0.05, Seed: 1})
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	if r.CutKm1 != 1 {
		t.Fatalf("cut = %d, want 1 (only the bridge)", r.CutKm1)
	}
	if r.PartWeights[0] != 10 || r.PartWeights[1] != 10 {
		t.Fatalf("weights = %v, want perfect balance", r.PartWeights)
	}
}

// Four independent cliques with k=4 should find a near-zero cut.
func TestKWayIndependentBlocks(t *testing.T) {
	const blocks, per = 4, 12
	n := blocks * per
	w := make([]int64, n)
	for i := range w {
		w[i] = 1
	}
	h := New(w)
	for bl := 0; bl < blocks; bl++ {
		var vs []int32
		for i := 0; i < per; i++ {
			vs = append(vs, int32(bl*per+i))
		}
		clique(h, 5, vs)
	}
	h.Finish()
	r, err := Partition(h, Options{K: blocks, Epsilon: 0.10, Seed: 7})
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	if r.CutKm1 != 0 {
		t.Fatalf("cut = %d, want 0 for independent blocks", r.CutKm1)
	}
	for p, pw := range r.PartWeights {
		if pw != per {
			t.Fatalf("part %d weight %d, want %d (weights %v)", p, pw, per, r.PartWeights)
		}
	}
}

// Balance holds on random hypergraphs for several k, and every vertex is
// assigned to a valid part (property-based).
func TestQuickPartitionInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seedRaw uint32) bool {
		n := 30 + rng.Intn(120)
		w := make([]int64, n)
		for i := range w {
			w[i] = int64(1 + rng.Intn(9))
		}
		h := New(w)
		ne := n * 2
		for e := 0; e < ne; e++ {
			sz := 2 + rng.Intn(4)
			pins := make([]int32, sz)
			for i := range pins {
				pins[i] = int32(rng.Intn(n))
			}
			h.AddEdge(int64(1+rng.Intn(5)), pins)
		}
		h.Finish()
		k := 2 + rng.Intn(6)
		eps := 0.08
		r, err := Partition(h, Options{K: k, Epsilon: eps, Seed: int64(seedRaw)})
		if err != nil {
			t.Logf("partition error: %v", err)
			return false
		}
		if len(r.Part) != n {
			return false
		}
		total := h.TotalVWeight()
		// Each bisection may use up to its share of eps; allow the full
		// composed bound plus one max vertex weight of slack (heavy
		// vertices can make perfect balance impossible).
		var maxVW int64
		for _, vw := range w {
			if vw > maxVW {
				maxVW = vw
			}
		}
		// ceil division spread over k parts.
		bound := int64(float64(total)*(1+eps)/float64(k)) + maxVW + int64(k)
		for p, pw := range r.PartWeights {
			if pw > bound {
				t.Logf("part %d weight %d exceeds bound %d (total=%d k=%d)", p, pw, bound, total, k)
				return false
			}
		}
		for _, pt := range r.Part {
			if pt < 0 || int(pt) >= k {
				return false
			}
		}
		// Cut must agree with a recomputation.
		r2 := Evaluate(h, k, r.Part)
		return r2.CutKm1 == r.CutKm1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Determinism: same seed, same result.
func TestPartitionDeterministic(t *testing.T) {
	n := 80
	w := make([]int64, n)
	rng := rand.New(rand.NewSource(3))
	for i := range w {
		w[i] = int64(1 + rng.Intn(5))
	}
	h := New(w)
	for e := 0; e < 200; e++ {
		pins := []int32{int32(rng.Intn(n)), int32(rng.Intn(n)), int32(rng.Intn(n))}
		h.AddEdge(int64(1+rng.Intn(3)), pins)
	}
	h.Finish()
	r1, err := Partition(h, Options{K: 4, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Partition(h, Options{K: 4, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Part {
		if r1.Part[i] != r2.Part[i] {
			t.Fatalf("nondeterministic partition at vertex %d", i)
		}
	}
}

func TestPartitionK1AndErrors(t *testing.T) {
	h := New([]int64{1, 2, 3})
	h.AddEdge(1, []int32{0, 1, 2})
	h.Finish()
	r, err := Partition(h, Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.CutKm1 != 0 {
		t.Fatalf("k=1 must have zero cut")
	}
	if _, err := Partition(h, Options{K: 0}); err == nil {
		t.Fatalf("k=0 must error")
	}
}

// More parts than vertices: no crash, parts may be empty.
func TestMorePartsThanVertices(t *testing.T) {
	h := New([]int64{5, 5, 5})
	h.AddEdge(1, []int32{0, 1})
	h.Finish()
	r, err := Partition(h, Options{K: 8, Epsilon: 0.5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, wt := range r.PartWeights {
		total += wt
	}
	if total != 15 {
		t.Fatalf("lost weight: %v", r.PartWeights)
	}
}

func TestImbalanceFactor(t *testing.T) {
	r := &Result{PartWeights: []int64{10, 10, 10, 18}}
	got := r.ImbalanceFactor()
	want := (18.0 - 12.0) / 12.0
	if got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("imbalance = %v, want %v", got, want)
	}
}

// A large hyperedge spanning everything should not prevent balanced
// partitioning; its cost is (k-1)*w no matter what.
func TestGlobalHyperedge(t *testing.T) {
	n := 64
	w := make([]int64, n)
	for i := range w {
		w[i] = 1
	}
	h := New(w)
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	h.AddEdge(2, all)
	// Local structure: chain edges.
	for i := 0; i+1 < n; i++ {
		h.AddEdge(4, []int32{int32(i), int32(i + 1)})
	}
	h.Finish()
	r, err := Partition(h, Options{K: 4, Epsilon: 0.1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Ideal: cut 3 chain edges (12) plus the global edge (3*2=6) = 18.
	if r.CutKm1 > 30 {
		t.Fatalf("cut = %d, expected near-ideal (18) for chain+global", r.CutKm1)
	}
}

func BenchmarkPartition1kVerts(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	n := 1000
	w := make([]int64, n)
	for i := range w {
		w[i] = int64(1 + rng.Intn(4))
	}
	h := New(w)
	for e := 0; e < 3000; e++ {
		sz := 2 + rng.Intn(3)
		pins := make([]int32, sz)
		for i := range pins {
			pins[i] = int32(rng.Intn(n))
		}
		h.AddEdge(int64(1+rng.Intn(3)), pins)
	}
	h.Finish()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Partition(h, Options{K: 8, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// setProcs sets GOMAXPROCS, which sizes the partitioner's worker pool,
// until the next call or the end of t, when the value t started with comes
// back.
func setProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// The partition must be bit-identical for every GOMAXPROCS: randomized
// stages draw from per-branch derived seed streams, not a shared RNG.
func TestPartitionWorkerEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 300
	w := make([]int64, n)
	for i := range w {
		w[i] = int64(1 + rng.Intn(6))
	}
	h := New(w)
	for e := 0; e < 900; e++ {
		sz := 2 + rng.Intn(4)
		pins := make([]int32, sz)
		for i := range pins {
			pins[i] = int32(rng.Intn(n))
		}
		h.AddEdge(int64(1+rng.Intn(4)), pins)
	}
	h.Finish()
	for _, k := range []int{2, 5, 8} {
		setProcs(t, 1)
		base, err := Partition(h, Options{K: k, Seed: 9})
		if err != nil {
			t.Fatalf("k=%d serial: %v", k, err)
		}
		for _, procs := range []int{2, 8} {
			setProcs(t, procs)
			got, err := Partition(h, Options{K: k, Seed: 9})
			if err != nil {
				t.Fatalf("k=%d GOMAXPROCS=%d: %v", k, procs, err)
			}
			if !reflect.DeepEqual(base.Part, got.Part) {
				t.Fatalf("k=%d GOMAXPROCS=%d: partition differs from serial", k, procs)
			}
			if got.CutKm1 != base.CutKm1 {
				t.Fatalf("k=%d GOMAXPROCS=%d: cut %d != %d", k, procs, got.CutKm1, base.CutKm1)
			}
		}
	}
}
