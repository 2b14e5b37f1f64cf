package hypergraph

import (
	"container/heap"
	"math"
)

// This file implements direct k-way FM refinement over the connectivity
// metric Σ_e (λ(e)−1)·ω(e). Recursive bisection composes pairwise cuts and
// never reconsiders a vertex against parts outside its bisection branch;
// the k-way pass runs after uncoarsening over the flat k-way assignment and
// moves boundary vertices between arbitrary parts. Because the partitioner
// models RepCut's proxy problem, (λ−1)-weighted cut IS replication cost:
// Σ_p weight(p) = total + Σ_e (λ(e)−1)·ω(e), so every unit of gain here is
// a unit of replicated work removed from some thread.

// kwayPasses bounds refinement passes; each pass stops rolling forward
// when its best prefix has non-positive gain.
const kwayPasses = 8

// KWayOptions configure one KWayRefine call.
type KWayOptions struct {
	// Epsilon is the balance tolerance: no part may exceed
	// (1+Epsilon)·(total/k) after any applied move (<= 0 means DefaultEpsilon).
	Epsilon float64
	// BugGainSign is a deliberately planted defect: every computed gain is
	// negated, so the pass greedily applies the most cut-increasing moves
	// it can find. Mutation tests and the difftest repartition column use
	// it to prove the refinement and its quality gates live. Never set it
	// outside tests.
	BugGainSign bool
}

// KWayStats reports what a refinement did.
type KWayStats struct {
	Passes int
	Moves  int
	// Gain is the total reduction of Σ(λ−1)·ω across all applied moves
	// (negative only under BugGainSign).
	Gain int64
	// RebalanceMoves counts moves applied by the balance-repair stage:
	// vertices drained out of parts that exceeded their weight bound.
	// Their (possibly negative) cut gain is included in Gain.
	RebalanceMoves int
	// Overweight is the number of parts still above their bound after
	// refinement (0 unless draining was infeasible).
	Overweight int
}

// kwItem is a lazily-invalidated heap entry: vertex v moving to part to.
type kwItem struct {
	gain int64
	v    int32
	to   int32
}

// kwHeap orders moves by gain descending, then vertex id ascending, then
// target part ascending — a total order, so the pop sequence (and with it
// the final partition) is identical on every run and worker count.
type kwHeap []kwItem

func (h kwHeap) Len() int { return len(h) }
func (h kwHeap) Less(i, j int) bool {
	if h[i].gain != h[j].gain {
		return h[i].gain > h[j].gain
	}
	if h[i].v != h[j].v {
		return h[i].v < h[j].v
	}
	return h[i].to < h[j].to
}
func (h kwHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *kwHeap) Push(x any)   { *h = append(*h, x.(kwItem)) }
func (h *kwHeap) Pop() any     { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

// kwMove records one applied move for rollback.
type kwMove struct {
	v    int32
	from int32
	gain int64
}

// KWayRefine improves a k-way assignment in place and returns what it did.
// part[v] must be in [0,k) for every vertex. The pass structure mirrors
// classic FM: every vertex moves at most once per pass, moves are applied
// speculatively, and the pass rolls back to its best prefix, so a pass can
// cross a gain valley but never ends worse than it started (absent
// BugGainSign).
func KWayRefine(h *H, k int, part []int32, opt KWayOptions) KWayStats {
	var st KWayStats
	if k <= 1 || h.NumV == 0 {
		return st
	}
	if h.Inc == nil {
		h.Finish()
	}
	if opt.Epsilon <= 0 {
		opt.Epsilon = DefaultEpsilon
	}
	n := h.NumV
	total := h.TotalVWeight()
	maxPart := int64(math.Ceil(float64(total) / float64(k) * (1 + opt.Epsilon)))

	// pc[e*k+p] counts edge e's pins in part p.
	pc := make([]int32, len(h.Edges)*k)
	side := make([]int64, k)
	recount := func() {
		for i := range pc {
			pc[i] = 0
		}
		for i := range side {
			side[i] = 0
		}
		for v := 0; v < n; v++ {
			side[part[v]] += h.VWeight[v]
		}
		for ei := range h.Edges {
			row := pc[ei*k : ei*k+k]
			for _, pv := range h.Edges[ei].Pins {
				row[part[pv]]++
			}
		}
	}

	// bestMove finds v's best target: gain(v,A→q) decomposes as
	// base − W + conn[q], where base = Σ ω(e) over edges whose pins in A
	// are exactly {v} (those leave A entirely), W = Σ ω(e) over all of v's
	// edges, and conn[q] = Σ ω(e) over edges that already have a pin in q.
	// Only adjacent parts (conn > 0) can yield positive gain, so only they
	// are candidates. Ties prefer the lowest part index.
	conn := make([]int64, k)
	connGen := make([]int64, k)
	var gen int64
	bestMove := func(v int32) (int64, int32) {
		from := part[v]
		gen++
		var base, w int64
		bestTo := int32(-1)
		var bestConn int64
		for _, ei := range h.Inc[v] {
			e := &h.Edges[ei]
			row := pc[int(ei)*k : int(ei)*k+k]
			w += e.Weight
			if row[from] == 1 {
				base += e.Weight
			}
			for q := int32(0); q < int32(k); q++ {
				if q == from || row[q] == 0 {
					continue
				}
				if connGen[q] != gen {
					connGen[q] = gen
					conn[q] = 0
				}
				conn[q] += e.Weight
				if conn[q] > bestConn || (conn[q] == bestConn && (bestTo < 0 || q < bestTo)) {
					bestConn, bestTo = conn[q], q
				}
			}
		}
		if bestTo < 0 {
			return math.MinInt64, -1
		}
		g := base - w + bestConn
		if opt.BugGainSign {
			g = -g
		}
		return g, bestTo
	}

	// bestFeasible finds v's best target among parts that can absorb it
	// without exceeding their bound — any part, adjacent or not (balance
	// trumps connectivity here). Ties prefer the lighter target, then the
	// lower part index, so draining is deterministic.
	bestFeasible := func(v int32) (int64, int32) {
		from := part[v]
		gen++
		var base, w int64
		for _, ei := range h.Inc[v] {
			e := &h.Edges[ei]
			row := pc[int(ei)*k : int(ei)*k+k]
			w += e.Weight
			if row[from] == 1 {
				base += e.Weight
			}
			for q := int32(0); q < int32(k); q++ {
				if q == from || row[q] == 0 {
					continue
				}
				if connGen[q] != gen {
					connGen[q] = gen
					conn[q] = 0
				}
				conn[q] += e.Weight
			}
		}
		bestTo := int32(-1)
		var bestG int64
		for q := int32(0); q < int32(k); q++ {
			if q == from || side[q]+h.VWeight[v] > maxPart {
				continue
			}
			var c int64
			if connGen[q] == gen {
				c = conn[q]
			}
			g := base - w + c
			if bestTo < 0 || g > bestG ||
				(g == bestG && (side[q] < side[bestTo] || (side[q] == side[bestTo] && q < bestTo))) {
				bestG, bestTo = g, q
			}
		}
		if bestTo < 0 {
			return math.MinInt64, -1
		}
		return bestG, bestTo
	}

	// rebalance drains overweight parts: while some part exceeds its
	// bound, move the resident vertex whose departure hurts the cut least
	// to the cheapest feasible target. Recursive bisection spreads ε over
	// its levels and composes their slack; with heavy vertices the deep
	// levels can be infeasible and the composed assignment lands well over
	// the global bound. The gain passes below only *preserve* balance
	// (moves into an overweight part are blocked) — this stage restores it
	// first, accepting cut-increasing moves when balance demands them.
	rebalance := func() {
		for guard := 0; guard < n; guard++ {
			over := int32(-1)
			var worst int64
			for p := 0; p < k; p++ {
				if exc := side[p] - maxPart; exc > worst {
					worst, over = exc, int32(p)
				}
			}
			if over < 0 {
				return
			}
			bestV, bestQ := int32(-1), int32(-1)
			var bestG int64
			for v := int32(0); v < int32(n); v++ {
				if part[v] != over || h.VWeight[v] == 0 {
					continue
				}
				g, q := bestFeasible(v)
				if q < 0 {
					continue
				}
				if bestQ < 0 || g > bestG ||
					(g == bestG && (side[q] < side[bestQ] ||
						(side[q] == side[bestQ] && (v < bestV || (v == bestV && q < bestQ))))) {
					bestG, bestV, bestQ = g, v, q
				}
			}
			if bestQ < 0 {
				return // nothing movable: every target full or part empty
			}
			part[bestV] = bestQ
			side[over] -= h.VWeight[bestV]
			side[bestQ] += h.VWeight[bestV]
			for _, ei := range h.Inc[bestV] {
				row := pc[int(ei)*k : int(ei)*k+k]
				row[over]--
				row[bestQ]++
			}
			st.RebalanceMoves++
			st.Gain += bestG
		}
	}

	locked := make([]bool, n)
	curG := make([]int64, n)
	curTo := make([]int32, n)
	var hp kwHeap
	moves := make([]kwMove, 0, n)

	for pass := 0; pass < kwayPasses; pass++ {
		recount()
		rebalance()
		for i := range locked {
			locked[i] = false
		}
		hp = hp[:0]
		for v := int32(0); v < int32(n); v++ {
			g, to := bestMove(v)
			curG[v], curTo[v] = g, to
			if to >= 0 {
				hp = append(hp, kwItem{gain: g, v: v, to: to})
			}
		}
		heap.Init(&hp)

		moves = moves[:0]
		var cum, bestCum int64
		bestIdx := -1
		for hp.Len() > 0 {
			it := heap.Pop(&hp).(kwItem)
			v := it.v
			if locked[v] || it.gain != curG[v] || it.to != curTo[v] {
				continue // stale
			}
			from, to := part[v], it.to
			if side[to]+h.VWeight[v] > maxPart {
				continue // would break balance; a neighbor update may requeue v
			}
			locked[v] = true
			part[v] = to
			side[from] -= h.VWeight[v]
			side[to] += h.VWeight[v]
			cum += it.gain
			moves = append(moves, kwMove{v: v, from: from, gain: it.gain})
			if cum > bestCum {
				bestCum = cum
				bestIdx = len(moves) - 1
			}
			// Critical-net rule, as in fmRefine: bestMove reads an edge
			// only through "is row[q] zero" and "is row[part[u]] one", so
			// it can change for e's pins only when the move empties or
			// thins the from side (1 or 2 pins) or fills or thickens the to
			// side (0 or 1 pins). Other edges are skipped without a scan.
			for _, ei := range h.Inc[v] {
				row := pc[int(ei)*k : int(ei)*k+k]
				critical := row[from] <= 2 || row[to] <= 1
				row[from]--
				row[to]++
				if !critical {
					continue
				}
				for _, u := range h.Edges[ei].Pins {
					if locked[u] {
						continue
					}
					g, t := bestMove(u)
					if g != curG[u] || t != curTo[u] {
						curG[u], curTo[u] = g, t
						if t >= 0 {
							heap.Push(&hp, kwItem{gain: g, v: u, to: t})
						}
					}
				}
			}
		}

		// Roll back past the best prefix.
		for i := len(moves) - 1; i > bestIdx; i-- {
			m := moves[i]
			side[part[m.v]] -= h.VWeight[m.v]
			side[m.from] += h.VWeight[m.v]
			for _, ei := range h.Inc[m.v] {
				row := pc[int(ei)*k : int(ei)*k+k]
				row[part[m.v]]--
				row[m.from]++
			}
			part[m.v] = m.from
		}
		st.Passes++
		st.Moves += bestIdx + 1
		st.Gain += bestCum
		if bestCum <= 0 {
			break
		}
	}
	for p := 0; p < k; p++ {
		if side[p] > maxPart {
			st.Overweight++
		}
	}
	return st
}
