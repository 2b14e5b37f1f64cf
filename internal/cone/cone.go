// Package cone implements the cone traversal and clustering steps of
// RepCut's replication-aided partitioning (§4.2 of the paper, Figure 3a-b).
//
// The cone of a sink vertex is the set of its ancestors plus itself: the
// vertices that can determine its value within a cycle. Every non-source
// vertex is annotated with the set of cones (sinks) it can reach; vertices
// with identical cone sets form a cluster. Clusters are the unit of
// replication: if a cluster's cones land in k distinct partitions, the
// cluster is instantiated k times.
//
// Source vertices (register reads, memory state, inputs) are not
// partitioned and belong to no cone.
//
// Cone traversals are independent per sink, so Analyze fans them out
// over a worker pool: each worker owns a contiguous range of cones and one
// private stamp array. Cone *sets* are then rebuilt by inverting the
// per-cone membership lists in ascending cone order, which yields sorted
// sets without a sort pass and is byte-identical for every GOMAXPROCS.
package cone

import (
	"fmt"

	"repro/internal/cgraph"
	"repro/internal/par"
)

// NoCluster marks source vertices, which belong to no cluster.
const NoCluster int32 = -1

// Cluster is a maximal set of vertices sharing one cone set.
type Cluster struct {
	ID      int32
	Members []cgraph.VID
	// Cones holds the sorted cone IDs (== sink indices in Analysis.Sinks)
	// every member reaches.
	Cones []int32
	// Sink is true if the cluster contains a sink vertex; a sink cluster's
	// cone set is exactly its own cone. Sink clusters become hypergraph
	// vertices; non-sink clusters become hyperedges.
	Sink bool
}

// Analysis is the result of cone traversal and clustering.
type Analysis struct {
	// Sinks lists the sink vertices; cone ID i is the cone of Sinks[i].
	Sinks []cgraph.VID
	// ConeSets[v] is the sorted set of cone IDs vertex v belongs to
	// (nil for sources).
	ConeSets [][]int32
	// Clusters are the cone-set equivalence classes.
	Clusters []Cluster
	// ClusterOf[v] is the cluster of v, or NoCluster for sources.
	ClusterOf []int32
	// SinkCluster[coneID] is the index of the sink cluster for that cone.
	SinkCluster []int32
}

// Analyze runs cone traversal (Algorithm 1) and clustering over g on a
// GOMAXPROCS-sized pool. The result is bit-identical for every GOMAXPROCS.
func Analyze(g *cgraph.Graph) (*Analysis, error) {
	n := g.NumVertices()
	a := &Analysis{
		Sinks:     g.Sinks(),
		ConeSets:  make([][]int32, n),
		ClusterOf: make([]int32, n),
	}
	pool := par.NewPool()

	// Traverse each cone bottom-up from its sink (Algorithm 1). Cones are
	// independent, so workers take contiguous cone ranges; the stamp array
	// (one per worker, replacing a per-traversal visited set) is valid
	// across a worker's whole range because stamps are global cone IDs.
	members := make([][]cgraph.VID, len(a.Sinks))
	pool.Chunks(len(a.Sinks), func(lo, hi int) {
		stamp := make([]int32, n)
		for i := range stamp {
			stamp[i] = -1
		}
		fringe := make([]cgraph.VID, 0, 1024)
		for cid := lo; cid < hi; cid++ {
			id := int32(cid)
			seed := a.Sinks[cid]
			mem := append([]cgraph.VID(nil), seed)
			stamp[seed] = id
			fringe = append(fringe[:0], g.Preds[seed]...)
			for len(fringe) > 0 {
				v := fringe[len(fringe)-1]
				fringe = fringe[:len(fringe)-1]
				if stamp[v] == id {
					continue
				}
				stamp[v] = id
				if g.Vs[v].Kind.IsSource() {
					continue // sources are not partitioned
				}
				mem = append(mem, v)
				fringe = append(fringe, g.Preds[v]...)
			}
			members[cid] = mem
		}
	})

	// Invert per-cone membership into per-vertex cone sets. Appending in
	// ascending cone order produces sorted sets directly, independent of
	// the BFS visit order inside each cone.
	for cid, mem := range members {
		for _, v := range mem {
			a.ConeSets[v] = append(a.ConeSets[v], int32(cid))
		}
	}

	// Cluster vertices by cone set. Hashes are precomputed in parallel;
	// the grouping pass itself stays sequential so cluster IDs are
	// assigned in vertex order (deterministic and worker-count-free).
	hashes := make([]uint64, n)
	pool.Chunks(n, func(lo, hi int) {
		for vi := lo; vi < hi; vi++ {
			hashes[vi] = hashCones(a.ConeSets[vi])
		}
	})
	type bucket struct {
		cluster int32
	}
	byHash := make(map[uint64][]bucket)
	equal := func(a, b []int32) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for vi := 0; vi < n; vi++ {
		v := cgraph.VID(vi)
		if g.Vs[v].Kind.IsSource() {
			a.ClusterOf[v] = NoCluster
			continue
		}
		cs := a.ConeSets[v]
		if len(cs) == 0 {
			return nil, fmt.Errorf("cone: vertex %s reaches no sink (dead code not pruned?)", g.Vs[v].Name)
		}
		h := hashes[vi]
		found := int32(-1)
		for _, b := range byHash[h] {
			if equal(a.Clusters[b.cluster].Cones, cs) {
				found = b.cluster
				break
			}
		}
		if found < 0 {
			found = int32(len(a.Clusters))
			a.Clusters = append(a.Clusters, Cluster{ID: found, Cones: cs})
			byHash[h] = append(byHash[h], bucket{cluster: found})
		}
		a.ClusterOf[v] = found
		cl := &a.Clusters[found]
		cl.Members = append(cl.Members, v)
		if g.Vs[v].Kind.IsSink() {
			cl.Sink = true
		}
	}

	// Map each cone to its sink cluster.
	a.SinkCluster = make([]int32, len(a.Sinks))
	for cid, s := range a.Sinks {
		a.SinkCluster[cid] = a.ClusterOf[s]
	}

	// Sanity: a sink cluster's cone set must be exactly its own cone
	// (sinks have no descendants, so they reach only themselves).
	for cid, ci := range a.SinkCluster {
		cl := &a.Clusters[ci]
		if !cl.Sink || len(cl.Cones) != 1 || cl.Cones[0] != int32(cid) {
			return nil, fmt.Errorf("cone: sink cluster invariant violated for cone %d (cones=%v)", cid, cl.Cones)
		}
	}
	return a, nil
}

// hashCones is an FNV-1a hash over a cone set.
func hashCones(s []int32) uint64 {
	h := uint64(1469598103934665603)
	for _, x := range s {
		h ^= uint64(uint32(x))
		h *= 1099511628211
	}
	return h
}
