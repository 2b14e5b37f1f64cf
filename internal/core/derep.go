package core

import (
	"sort"

	"repro/internal/cgraph"
	"repro/internal/cone"
	"repro/internal/par"
)

// This file implements the dereplication post-pass: the replication-aware
// repartitioning stage that runs after realize().
//
// Full cone replication charges a partition the whole fan-in cone of each
// sink it owns — including the clusters that cone shares with other
// partitions' cones, which every sharing partition recomputes per cycle.
// For a register write sink w with next-value driver U the recomputation is
// avoidable: demote the register, and the partition that owned w drops
// cone(w) entirely while a chosen owner partition commits U's value once
// per cycle into a single shared slot that the register's read vertex
// aliases. The owner is picked to already cover most of U's fan-in, so it
// adds only the small uncovered remainder (typically the register's private
// next-value mux chain); the old partition's shared-cluster replicas whose
// only use was cone(w) disappear — that difference is the pass's profit.
//
// The transformation is race-free under the existing two-phase protocol
// and needs no new synchronization: the slot is written only by the
// owner's commit memcpy (after the evaluation barrier), so during the
// evaluation phase of cycle c every thread reads U@(c−1) — which by the
// register transfer r@c = U@(c−1) is precisely the demoted registers'
// current value. Demotion is sound only across a register boundary
// (retiming); committing a combinational value for same-cycle consumers
// would be one cycle late, which is why eligibility is keyed to register
// writes and the verifier re-proves driver identity per group.

// derepState carries the incremental bookkeeping of the greedy demotion
// loop: per-partition cluster reference counts over the surviving cones,
// per-partition injected vertex sets (the ancestor closures owners take on
// for their groups), and running part weights.
type derepState struct {
	g     *cgraph.Graph
	an    *cone.Analysis
	eta   []int64
	vcost []int64
	k     int

	// cover[p*nCl+ci] counts partition p's surviving cones covering
	// cluster ci (plus one permanent count per owner injection of ci's
	// whole... no — injections are vertex-level and tracked separately).
	cover []int32
	// injected[p] are the vertices partition p executes beyond its covered
	// clusters: ancestor closures of its derep group drivers.
	injected []map[cgraph.VID]bool
	weight   []int64
	// coneClusters[cid] lists the clusters cone cid covers.
	coneClusters [][]int32
}

func (s *derepState) coverAt(p int32, ci int32) int32 {
	return s.cover[int(p)*len(s.an.Clusters)+int(ci)]
}

// ancestors returns u's non-source ancestor closure (including u itself),
// in deterministic (DFS, pred-order) order.
func (s *derepState) ancestors(u cgraph.VID, seen []bool) []cgraph.VID {
	var out []cgraph.VID
	stack := []cgraph.VID{u}
	seen[u] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, v)
		for _, pr := range s.g.Preds[v] {
			if !seen[pr] && !s.g.Vs[pr].Kind.IsSource() {
				seen[pr] = true
				stack = append(stack, pr)
			}
		}
	}
	for _, v := range out {
		seen[v] = false
	}
	return out
}

// dereplicate runs the post-pass over a realized partitioning, mutating
// res in place when (and only when) the rebuilt partitioning strictly
// reduces total replicated work. eta is the per-cluster cost and vcost the
// per-vertex cost used by realize; an is the cone analysis the partition
// came from.
func dereplicate(g *cgraph.Graph, an *cone.Analysis, eta, vcost []int64, res *Result, pool *par.Pool) {
	if res.K < 2 {
		return
	}
	nCl := len(an.Clusters)

	// Cone ID of each sink vertex.
	sinkCone := make(map[cgraph.VID]int32, len(an.Sinks))
	for cid, sv := range an.Sinks {
		sinkCone[sv] = int32(cid)
	}

	// Eligibility: narrow register, driven by a non-source vertex of the
	// same width (no sign-extension at the commit, one word to copy).
	type derepCandidate struct {
		reg int32      // index into g.Regs
		u   cgraph.VID // next-value driver
	}
	var cands []derepCandidate
	for ri := range g.Regs {
		r := &g.Regs[ri]
		w := r.Write
		wx := &g.Vs[w]
		if wx.Type.Width > 64 {
			continue
		}
		drv := wx.Args[0]
		if drv.V == cgraph.None {
			continue // literal driver: nothing replicated to save
		}
		u := drv.V
		ux := &g.Vs[u]
		if ux.Kind.IsSource() {
			// A source driver (input or another register's read) holds its
			// *current*-cycle value during eval; committing it would hand
			// readers a value one cycle late. Only computed drivers retime
			// soundly.
			continue
		}
		if ux.Type.Width != wx.Type.Width {
			continue
		}
		cands = append(cands, derepCandidate{reg: int32(ri), u: u})
	}
	if len(cands) == 0 {
		return
	}

	// Group candidates by (driver, initial value): one committed slot per
	// group, so every register in a group must reset to the same value.
	type groupKey struct {
		u    cgraph.VID
		init string
	}
	byKey := map[groupKey][]int32{}
	var keys []groupKey
	for _, c := range cands {
		k := groupKey{u: c.u, init: g.Regs[c.reg].Init.String()}
		if _, ok := byKey[k]; !ok {
			keys = append(keys, k)
		}
		byKey[k] = append(byKey[k], c.reg)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].u != keys[b].u {
			return keys[a].u < keys[b].u
		}
		return keys[a].init < keys[b].init
	})

	// Build the state: per-partition cluster cover counts from the cones.
	st := &derepState{g: g, an: an, eta: eta, vcost: vcost, k: res.K,
		cover: make([]int32, res.K*nCl), injected: make([]map[cgraph.VID]bool, res.K),
		weight: make([]int64, res.K), coneClusters: make([][]int32, len(an.Sinks))}
	for ci := range an.Clusters {
		for _, cid := range an.Clusters[ci].Cones {
			st.coneClusters[cid] = append(st.coneClusters[cid], int32(ci))
		}
	}
	for cid := range an.Sinks {
		p := res.PartOfSink[cid]
		for _, ci := range st.coneClusters[cid] {
			st.cover[int(p)*nCl+int(ci)]++
		}
	}
	for p := 0; p < res.K; p++ {
		st.injected[p] = map[cgraph.VID]bool{}
		st.weight[p] = res.Parts[p].Weight
	}

	// Greedy demotion. Each group is evaluated against the current state:
	// removing its registers' cones drops every cluster whose cover in some
	// partition reaches zero; the owner re-adds the then-uncovered part of
	// the driver's ancestor closure. Positive net profit (beyond the one
	// commit copy the owner pays) commits the demotion permanently;
	// otherwise the state is untouched. Groups are visited in (driver,
	// init) order, so the outcome is deterministic.
	seen := make([]bool, g.NumVertices())
	type delta struct {
		p  int32
		ci int32
	}
	var dereps []cgraph.DerepGroup
	demotedCone := make([]bool, len(an.Sinks))
	demotedW := map[cgraph.VID]bool{}
	for _, key := range keys {
		regs := byKey[key]
		uAnc := st.ancestors(key.u, seen)

		// Simulate removing every register's cone.
		dec := map[delta]int32{}
		order := make([]delta, 0, 16)
		for _, ri := range regs {
			cid := sinkCone[g.Regs[ri].Write]
			p := res.PartOfSink[cid]
			for _, ci := range st.coneClusters[cid] {
				d := delta{p, ci}
				if _, ok := dec[d]; !ok {
					order = append(order, d)
				}
				dec[d]++
			}
		}
		var gain int64
		for _, d := range order {
			if st.coverAt(d.p, d.ci) == dec[d] {
				gain += eta[d.ci]
			}
		}
		// Injected vertices of other groups keep executing even when their
		// cluster's cover drops to zero, so the eta-based gain above
		// overstates those partitions' savings; the final rebuild settles
		// exact weights, and the strict global accept below is the arbiter.

		// Owner choice: the partition whose post-removal uncovered share of
		// the ancestor closure is cheapest (ties: lighter part, lower id).
		bestOwner, bestAdd := int32(-1), int64(0)
		for p := int32(0); p < int32(res.K); p++ {
			var add int64
			for _, v := range uAnc {
				ci := an.ClusterOf[v]
				c := st.coverAt(p, ci)
				if d, ok := dec[delta{p, ci}]; ok {
					c -= d
				}
				if c <= 0 && !st.injected[p][v] {
					add += vcost[v]
				}
			}
			if bestOwner < 0 || add < bestAdd ||
				(add == bestAdd && (st.weight[p] < st.weight[bestOwner] ||
					(st.weight[p] == st.weight[bestOwner] && p < bestOwner))) {
				bestOwner, bestAdd = p, add
			}
		}
		// One extra commit copy per group, priced as the (ClassCopy)
		// register write the demotion removes.
		copyCost := vcost[g.Regs[regs[0]].Write]
		if gain-bestAdd <= copyCost {
			continue
		}

		// Commit: apply the cone removals, inject the ancestor closure.
		for _, d := range order {
			idx := int(d.p)*nCl + int(d.ci)
			if st.cover[idx] == dec[d] {
				st.weight[d.p] -= eta[d.ci]
			}
			st.cover[idx] -= dec[d]
		}
		inj := st.injected[bestOwner]
		for _, v := range uAnc {
			if st.coverAt(bestOwner, an.ClusterOf[v]) <= 0 && !inj[v] {
				inj[v] = true
				st.weight[bestOwner] += vcost[v]
			}
		}
		sorted := append([]int32(nil), regs...)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
		dereps = append(dereps, cgraph.DerepGroup{U: key.u, Owner: bestOwner, Regs: sorted})
		for _, ri := range sorted {
			demotedCone[sinkCone[g.Regs[ri].Write]] = true
			demotedW[g.Regs[ri].Write] = true
		}
	}
	if len(dereps) == 0 {
		return
	}

	// Recompute the injections against the FINAL cover counts: a later
	// group's cone removal can uncover a cluster an earlier injection's
	// closure relied on (the loop-time sets are only weight estimates), and
	// loop-time injections of clusters that stayed covered are duplicates.
	for p := range st.injected {
		st.injected[p] = map[cgraph.VID]bool{}
	}
	for _, d := range dereps {
		inj := st.injected[d.Owner]
		for _, v := range st.ancestors(d.U, seen) {
			if st.coverAt(d.Owner, an.ClusterOf[v]) <= 0 {
				inj[v] = true
			}
		}
	}

	// Rebuild the realized partitioning: a partition executes the members
	// of every cluster it still covers plus its injected ancestor
	// closures, minus the demoted register writes (replaced by the owners'
	// commits into one committed slot per group). Cones are ancestor-closed and injections are
	// ancestor closures, so every partition stays closed.
	k := res.K
	parts := make([]Part, k)
	partOf := make([][]int32, g.NumVertices())
	inPart := make([]map[cgraph.VID]bool, k)
	for p := 0; p < k; p++ {
		inPart[p] = make(map[cgraph.VID]bool, len(res.Parts[p].Vertices))
	}
	for ci := 0; ci < nCl; ci++ {
		for p := 0; p < k; p++ {
			if st.cover[p*nCl+ci] > 0 {
				for _, v := range an.Clusters[ci].Members {
					inPart[p][v] = true
				}
			}
		}
	}
	for p := 0; p < k; p++ {
		for v := range st.injected[p] {
			inPart[p][v] = true
		}
		for v := range inPart[p] {
			if demotedW[v] {
				delete(inPart[p], v)
			}
		}
	}
	var sumAfter, sumBefore int64
	for p := 0; p < k; p++ {
		verts := make([]cgraph.VID, 0, len(inPart[p]))
		for v := range inPart[p] {
			verts = append(verts, v)
		}
		sort.Slice(verts, func(a, b int) bool { return verts[a] < verts[b] })
		parts[p].Vertices = verts
		var w int64
		for _, v := range verts {
			w += vcost[v]
		}
		parts[p].Weight = w
		sumAfter += w
		sumBefore += res.Parts[p].Weight
	}
	if sumAfter >= sumBefore {
		return
	}

	var cutCost int64
	replicated := 0
	for v := 0; v < g.NumVertices(); v++ {
		var ps []int32
		for p := 0; p < k; p++ {
			if inPart[p][cgraph.VID(v)] {
				ps = append(ps, int32(p))
			}
		}
		if len(ps) > 0 {
			partOf[v] = ps
			if len(ps) > 1 {
				replicated++
				cutCost += int64(len(ps)-1) * vcost[v]
			}
		}
	}
	for cid, sv := range an.Sinks {
		if demotedCone[cid] {
			continue
		}
		parts[res.PartOfSink[cid]].Sinks = append(parts[res.PartOfSink[cid]].Sinks, sv)
	}

	pos := make([]int32, g.NumVertices())
	for i, v := range g.Topo {
		pos[v] = int32(i)
	}
	pool.ForEach(k, func(p int) {
		vs := parts[p].Vertices
		sort.Slice(vs, func(a, b int) bool { return pos[vs[a]] < pos[vs[b]] })
	})

	res.Parts = parts
	res.PartOf = partOf
	res.CutCost = cutCost
	res.ReplicatedVertices = replicated
	res.Dereps = dereps
	res.DerepRegs = 0
	for _, d := range dereps {
		res.DerepRegs += len(d.Regs)
	}
	var maxPart int64
	for p := 0; p < k; p++ {
		if parts[p].Weight > maxPart {
			maxPart = parts[p].Weight
		}
	}
	if res.TotalWeight > 0 {
		res.ReplicationCost = float64(sumAfter)/float64(res.TotalWeight) - 1
	}
	if avg := float64(sumAfter) / float64(k); avg > 0 {
		res.ImbalanceIncl = (float64(maxPart) - avg) / avg
	}
}
