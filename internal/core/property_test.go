package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/costmodel"
)

// Property: for random circuits and random K, the partitioning always
// satisfies the structural invariants (self-containment, unique sink
// ownership, full coverage, topological order) and the cost accounting is
// internally consistent.
func TestQuickPartitionProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	f := func(raw uint32) bool {
		regs := 10 + rng.Intn(40)
		g := mustGraph(t, randomPipelineSrc(regs, int64(raw%1000)))
		k := 1 + rng.Intn(10)
		uw := rng.Intn(2) == 0
		model := costmodel.Default()
		if uw {
			model = costmodel.Unweighted()
		}
		res, err := Partition(g, Options{K: k, Seed: int64(raw), Model: model})
		if err != nil {
			t.Logf("partition error: %v", err)
			return false
		}
		if err := verifyCompiled(g, res); err != nil {
			t.Logf("verify: %v", err)
			return false
		}
		// Cost accounting: Σ part weights = total + cut.
		var sum int64
		for i := range res.Parts {
			sum += res.Parts[i].Weight
		}
		if sum != res.TotalWeight+res.CutCost {
			t.Logf("weight accounting: %d != %d + %d", sum, res.TotalWeight, res.CutCost)
			return false
		}
		if res.ReplicationCost < 0 || (k == 1 && res.ReplicationCost != 0) {
			return false
		}
		// PartOf is consistent with the vertex lists.
		for p := range res.Parts {
			for _, v := range res.Parts[p].Vertices {
				found := false
				for _, q := range res.PartOf[v] {
					if int(q) == p {
						found = true
					}
				}
				if !found {
					t.Logf("PartOf inconsistent for vertex %d", v)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
