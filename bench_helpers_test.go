package repcut

import (
	"repro/internal/cgraph"
	"repro/internal/core"
	"repro/internal/costmodel"
)

// partitionForBench runs the partitioner with a fresh seed (no memoization).
func partitionForBench(g *cgraph.Graph, k int, seed int64) (*core.Result, error) {
	return core.Partition(g, core.Options{K: k, Seed: seed, Model: costmodel.Default()})
}
