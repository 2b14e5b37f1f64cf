// Package core implements RepCut's primary contribution: replication-aided
// partitioning of a circuit DAG into K balanced, fully independent
// partitions (§4 of the paper).
//
// The pipeline is: cone traversal and clustering (internal/cone) → build the
// weighted intersection hypergraph (Formula 1) → K-way partition minimizing
// the replication proxy objective Σ(λ−1)·ω (Formula 2, internal/hypergraph)
// → realize partitions by assigning every cluster to each partition that
// contains one of its cones, replicating clusters whose cones span
// partitions. The result is a set of per-thread vertex lists in topological
// order that share no intra-cycle data dependences: each thread reads only
// global state (register/memory sources) and its own computed values.
package core

import (
	"fmt"
	"sort"

	"repro/internal/cgraph"
	"repro/internal/cone"
	"repro/internal/costmodel"
	"repro/internal/hypergraph"
	"repro/internal/par"
)

// Options configure the partitioner.
type Options struct {
	// K is the number of partitions (threads).
	K int
	// Epsilon is the balance tolerance handed to the hypergraph
	// partitioner (<= 0 means hypergraph.DefaultEpsilon).
	Epsilon float64
	// Seed makes partitioning deterministic.
	Seed int64
	// Model predicts per-vertex simulation cost (η). Use
	// costmodel.Unweighted() for the RepCut UW configuration.
	Model costmodel.Model
	// NoRefine disables the direct k-way FM cleanup that runs over the flat
	// assignment after recursive bisection (hypergraph.KWayRefine). The
	// unrefined partitioner is kept addressable so refined and unrefined
	// results can be compared like-for-like.
	NoRefine bool
	// RefineBug plants the k-way gain-sign defect (tests and difftest
	// liveness checks only — never set it in production).
	RefineBug bool
	// Derep enables the dereplication post-pass: register groups whose
	// common next-value driver is replicated across partitions are demoted
	// to a single committed slot read cross-thread (see derep.go). The
	// result relies on the two-phase eval/commit protocol, so the pass is
	// opt-in here and enabled by the top-level repcut API.
	Derep bool
}

// Part is one independent partition.
type Part struct {
	// Vertices lists every vertex this partition executes, replicated
	// clusters included, in topological order.
	Vertices []cgraph.VID
	// Sinks are the sink vertices owned by (unique to) this partition.
	Sinks []cgraph.VID
	// Weight is the predicted execution cost including replication.
	Weight int64
}

// Result is a complete replication-aided partitioning.
type Result struct {
	K        int
	Parts    []Part
	Analysis *cone.Analysis
	// PartOfSink[coneID] is the partition owning that sink.
	PartOfSink []int32
	// PartOf[v] lists the partitions executing vertex v (len>1 means
	// replicated). Sources have no entry.
	PartOf [][]int32

	// TotalWeight is the predicted cost of the whole circuit (η of every
	// partitioned vertex).
	TotalWeight int64
	// CutCost is the proxy objective value Σ_{e∈cut}(|λ(e)|−1)·ω(e)
	// (Formula 2).
	CutCost int64
	// ReplicationCost is Σ_p weight(p) / weight(circuit) − 1 (Formula 3).
	ReplicationCost float64
	// ImbalanceExcl is the imbalance factor of the hypergraph partition
	// before replication (Formula 4 over hypergraph part weights).
	ImbalanceExcl float64
	// ImbalanceIncl is the imbalance factor of the realized partitions
	// including replication.
	ImbalanceIncl float64
	// ReplicatedVertices counts vertices present in more than one
	// partition.
	ReplicatedVertices int

	// Dereps lists the dereplication groups applied by the post-pass
	// (empty unless Options.Derep found profitable groups). Groups are
	// sorted by driver vertex; DerepRegs counts the demoted registers.
	Dereps    []cgraph.DerepGroup
	DerepRegs int
}

// DerepsOf returns the dereplication groups owned by partition p, in
// deterministic (driver-vertex) order — the form sim.PartSpec consumes.
func (r *Result) DerepsOf(p int) []cgraph.DerepGroup {
	var out []cgraph.DerepGroup
	for _, d := range r.Dereps {
		if int(d.Owner) == p {
			out = append(out, d)
		}
	}
	return out
}

// Partition runs the full replication-aided partitioning pipeline on g.
// Its stages share a GOMAXPROCS-sized pool; the Result is bit-identical for
// every GOMAXPROCS.
func Partition(g *cgraph.Graph, opt Options) (*Result, error) {
	if opt.K <= 0 {
		return nil, fmt.Errorf("core: K must be positive, got %d", opt.K)
	}
	pool := par.NewPool()
	an, err := cone.Analyze(g)
	if err != nil {
		return nil, err
	}
	if len(an.Sinks) == 0 {
		return nil, fmt.Errorf("core: circuit has no sinks to partition")
	}

	// Cluster weights η (predicted simulation cost). Clusters are
	// independent; the total is reduced serially afterwards.
	vcost := make([]int64, g.NumVertices())
	pool.Chunks(g.NumVertices(), func(lo, hi int) {
		for v := lo; v < hi; v++ {
			vcost[v] = opt.Model.VertexCost(&g.Vs[v])
		}
	})
	eta := make([]int64, len(an.Clusters))
	pool.Chunks(len(an.Clusters), func(lo, hi int) {
		for ci := lo; ci < hi; ci++ {
			var w int64
			for _, v := range an.Clusters[ci].Members {
				w += vcost[v]
			}
			eta[ci] = w
		}
	})
	var totalWeight int64
	for _, w := range eta {
		totalWeight += w
	}

	// Build the intersection hypergraph (Formula 1): one vertex per sink
	// cluster, one hyperedge per non-sink cluster connecting its cones.
	// Vertex weight = η(v) + Σ_{e∈Γ(v)} η(e)/|e|; edge weight = η(e).
	nCones := len(an.Sinks)
	vWeightF := make([]float64, nCones)
	for cid := 0; cid < nCones; cid++ {
		vWeightF[cid] = float64(eta[an.SinkCluster[cid]])
	}
	type hedge struct {
		cluster int32
		weight  int64
	}
	var hedges []hedge
	for ci := range an.Clusters {
		cl := &an.Clusters[ci]
		if cl.Sink {
			continue
		}
		share := float64(eta[ci]) / float64(len(cl.Cones))
		for _, cid := range cl.Cones {
			vWeightF[cid] += share
		}
		hedges = append(hedges, hedge{cluster: int32(ci), weight: eta[ci]})
	}
	vWeights := make([]int64, nCones)
	for i, w := range vWeightF {
		vWeights[i] = int64(w + 0.5)
		if vWeights[i] < 1 {
			vWeights[i] = 1
		}
	}
	hg := hypergraph.New(vWeights)
	for _, he := range hedges {
		hg.AddEdge(he.weight, an.Clusters[he.cluster].Cones)
	}
	hg.Finish()

	hr, err := hypergraph.Partition(hg, hypergraph.Options{
		K: opt.K, Epsilon: opt.Epsilon, Seed: opt.Seed, SkipKWay: opt.NoRefine, KWayBug: opt.RefineBug,
	})
	if err != nil {
		return nil, err
	}

	res, err := realize(g, an, eta, totalWeight, hr, opt.K, pool)
	if err != nil {
		return nil, err
	}
	if opt.Derep {
		dereplicate(g, an, eta, vcost, res, pool)
	}
	return res, nil
}

// realize turns a sink-cluster partition into per-thread vertex lists,
// replicating shared clusters, and computes all cost metrics.
func realize(g *cgraph.Graph, an *cone.Analysis, eta []int64, totalWeight int64,
	hr *hypergraph.Result, k int, pool *par.Pool) (*Result, error) {

	res := &Result{
		K:             k,
		Parts:         make([]Part, k),
		Analysis:      an,
		PartOfSink:    hr.Part,
		PartOf:        make([][]int32, g.NumVertices()),
		TotalWeight:   totalWeight,
		ImbalanceExcl: hr.ImbalanceFactor(),
	}

	// Assign each cluster to the distinct partitions of its cones.
	partsOfCluster := make([][]int32, len(an.Clusters))
	seen := make([]int32, k)
	for i := range seen {
		seen[i] = -1
	}
	for ci := range an.Clusters {
		cl := &an.Clusters[ci]
		var parts []int32
		for _, cid := range cl.Cones {
			p := hr.Part[cid]
			if seen[p] != int32(ci) {
				seen[p] = int32(ci)
				parts = append(parts, p)
			}
		}
		sort.Slice(parts, func(a, b int) bool { return parts[a] < parts[b] })
		partsOfCluster[ci] = parts
		if len(parts) > 1 {
			res.ReplicatedVertices += len(cl.Members)
			res.CutCost += int64(len(parts)-1) * eta[ci]
		}
		for _, p := range parts {
			res.Parts[p].Weight += eta[ci]
			res.Parts[p].Vertices = append(res.Parts[p].Vertices, cl.Members...)
		}
		for _, v := range cl.Members {
			res.PartOf[v] = parts
		}
	}

	// Owned sinks per partition.
	for cid, s := range an.Sinks {
		res.Parts[hr.Part[cid]].Sinks = append(res.Parts[hr.Part[cid]].Sinks, s)
	}

	// Topologically order each partition's vertex list. Partitions sort
	// independently; with replication these sorts dominate realization on
	// large designs, so they fan out over the pool.
	pos := make([]int32, g.NumVertices())
	for i, v := range g.Topo {
		pos[v] = int32(i)
	}
	pool.ForEach(len(res.Parts), func(p int) {
		vs := res.Parts[p].Vertices
		sort.Slice(vs, func(a, b int) bool { return pos[vs[a]] < pos[vs[b]] })
	})

	// Metrics.
	var sumPart, maxPart int64
	for p := range res.Parts {
		sumPart += res.Parts[p].Weight
		if res.Parts[p].Weight > maxPart {
			maxPart = res.Parts[p].Weight
		}
	}
	if totalWeight > 0 {
		res.ReplicationCost = float64(sumPart)/float64(totalWeight) - 1
	}
	avg := float64(sumPart) / float64(k)
	if avg > 0 {
		res.ImbalanceIncl = (float64(maxPart) - avg) / avg
	}
	return res, nil
}
