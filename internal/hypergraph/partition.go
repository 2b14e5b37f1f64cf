package hypergraph

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/par"
)

// Options control the multilevel partitioner.
type Options struct {
	K       int
	Epsilon float64 // allowed imbalance, e.g. 0.03 = 3%
	Seed    int64
	// CoarsenTo is the coarsest vertex count before initial partitioning
	// (default 160).
	CoarsenTo int
	// InitRuns is the number of randomized initial bisections (default 16).
	InitRuns int
	// MaxFMPasses bounds FM refinement passes per level (default 4).
	MaxFMPasses int
	// Workers bounds the parallelism of the partitioner (initial bisection
	// runs and recursive-bisection branches). <= 0 means all cores; 1 runs
	// fully serial. The partition produced is bit-identical for every
	// worker count: randomized stages draw from seeds derived per branch
	// and per run (par.Derive), never from a shared sequential RNG.
	Workers int
	// ParallelDepth is the recursion depth below which the two branches of
	// a bisection may run concurrently (default 3, i.e. up to 8 in-flight
	// branches). Deeper branches run inline on their parent's goroutine.
	ParallelDepth int
	// SkipKWay disables the direct k-way FM pass that normally replaces
	// pure pairwise bisection cleanup (kway.go). Used for unrefined
	// baselines and A/B measurement.
	SkipKWay bool
	// KWayPasses bounds the k-way refinement passes (default 8).
	KWayPasses int
	// KWayBug plants the gain-sign defect into the k-way pass (see
	// KWayOptions.BugGainSign). Tests only.
	KWayBug bool
}

func (o *Options) defaults() {
	if o.CoarsenTo <= 0 {
		o.CoarsenTo = 160
	}
	if o.InitRuns <= 0 {
		o.InitRuns = 16
	}
	if o.MaxFMPasses <= 0 {
		o.MaxFMPasses = 4
	}
	if o.Epsilon <= 0 {
		o.Epsilon = 0.03
	}
	if o.ParallelDepth <= 0 {
		o.ParallelDepth = 3
	}
}

// Partition computes a k-way partition of h minimizing Σ(λ−1)·ω subject to
// the ε balance constraint, via multilevel recursive bisection.
func Partition(h *H, opt Options) (*Result, error) {
	opt.defaults()
	if opt.K <= 0 {
		return nil, fmt.Errorf("hypergraph: k must be positive, got %d", opt.K)
	}
	if h.Inc == nil {
		h.Finish()
	}
	part := make([]int32, h.NumV)
	if opt.K > 1 {
		// Spread the global ε over the bisection levels so the composed
		// partition still meets it.
		levels := int(math.Ceil(math.Log2(float64(opt.K))))
		if levels < 1 {
			levels = 1
		}
		epsB := math.Pow(1+opt.Epsilon, 1/float64(levels)) - 1
		verts := make([]int32, h.NumV)
		for i := range verts {
			verts[i] = int32(i)
		}
		p := &partitioner{opt: opt, epsB: epsB, pool: par.NewPool(opt.Workers)}
		p.recurse(h, verts, opt.K, 0, part, opt.Seed, 0)
		if !opt.SkipKWay {
			// Direct k-way cleanup over the composed assignment: recursive
			// bisection never reconsiders a vertex against parts outside
			// its branch; this pass does, charging moves by the
			// connectivity metric (= replication cost).
			KWayRefine(h, opt.K, part, KWayOptions{
				Epsilon:     opt.Epsilon,
				MaxPasses:   opt.KWayPasses,
				BugGainSign: opt.KWayBug,
			})
		}
	}
	return Evaluate(h, opt.K, part), nil
}

type partitioner struct {
	opt  Options
	epsB float64
	pool *par.Pool
}

// Seed-stream labels. Each randomized stage derives its RNG from the
// branch seed plus one of these labels, so adding a stage can never shift
// another stage's stream.
const (
	seedBisect  = 0 // this branch's bisection
	seedLeft    = 1 // left sub-branch
	seedRight   = 2 // right sub-branch
	seedCoarsen = 3 // per-level coarsening permutation
	seedInit    = 4 // per-run initial bisection
)

// recurse assigns parts [off, off+k) to the given vertices of orig. Each
// branch owns a disjoint slice of the vertex universe and a derived seed
// stream, so sibling branches can run concurrently (up to ParallelDepth)
// without affecting the result.
func (p *partitioner) recurse(orig *H, verts []int32, k, off int, out []int32, seed int64, depth int) {
	if k == 1 {
		for _, v := range verts {
			out[v] = int32(off)
		}
		return
	}
	sub := induce(orig, verts)
	k0 := (k + 1) / 2
	frac0 := float64(k0) / float64(k)
	side := p.bisect(sub, frac0, par.Derive(seed, seedBisect))
	var v0, v1 []int32
	for i, v := range verts {
		if side[i] == 0 {
			v0 = append(v0, v)
		} else {
			v1 = append(v1, v)
		}
	}
	left := func() { p.recurse(orig, v0, k0, off, out, par.Derive(seed, seedLeft), depth+1) }
	right := func() { p.recurse(orig, v1, k-k0, off+k0, out, par.Derive(seed, seedRight), depth+1) }
	if depth < p.opt.ParallelDepth && k > 2 {
		p.pool.Do(left, right)
	} else {
		left()
		right()
	}
}

// induce builds the sub-hypergraph over the given vertices with cut-net
// splitting: each edge keeps its pins inside the subset (if ≥ 2 remain).
func induce(h *H, verts []int32) *H {
	idx := make(map[int32]int32, len(verts))
	w := make([]int64, len(verts))
	for i, v := range verts {
		idx[v] = int32(i)
		w[i] = h.VWeight[v]
	}
	sub := New(w)
	var pins []int32
	for ei := range h.Edges {
		pins = pins[:0]
		for _, pv := range h.Edges[ei].Pins {
			if ni, ok := idx[pv]; ok {
				pins = append(pins, ni)
			}
		}
		if len(pins) >= 2 {
			sub.AddEdge(h.Edges[ei].Weight, pins)
		}
	}
	sub.Finish()
	return sub
}

// level is one rung of the multilevel hierarchy.
type level struct {
	h        *H
	toCoarse []int32 // fine vertex -> coarse vertex (nil at the finest level)
}

// scratch holds the reusable buffers of one bisection context. Coarsening
// and FM refinement run many times across the levels of one bisection (and
// across FM passes); reusing these slices keeps the partitioner's
// allocation rate flat in the level count. Scratch is confined to a single
// goroutine: every concurrent task (initial-bisection run, recursion
// branch) allocates its own.
type scratch struct {
	pinCount [][2]int64
	locked   []bool
	gain     []int64
	hp       fmHeap
	moves    []fmMove
	match    []int32
	pinBuf   []int32
	rating   []float64
	touched  []int32
}

// grow returns s resized to n, reallocating only when capacity is short.
// Contents are unspecified; callers must overwrite what they read.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// bisect produces a 0/1 side assignment for h with side 0 targeting frac0
// of the total weight, within p.epsB. All randomness comes from streams
// derived from seed, so the result does not depend on worker count.
func (p *partitioner) bisect(h *H, frac0 float64, seed int64) []int32 {
	total := h.TotalVWeight()
	max0 := int64(math.Ceil(float64(total) * frac0 * (1 + p.epsB)))
	max1 := int64(math.Ceil(float64(total) * (1 - frac0) * (1 + p.epsB)))
	sc := new(scratch)

	// Coarsen.
	levels := []level{{h: h}}
	cur := h
	for li := int64(0); cur.NumV > p.opt.CoarsenTo; li++ {
		rng := rand.New(rand.NewSource(par.Derive(seed, seedCoarsen, li)))
		coarse, m := p.coarsen(cur, total, rng, sc)
		if coarse.NumV >= cur.NumV*19/20 {
			break // diminishing returns
		}
		levels = append(levels, level{h: coarse, toCoarse: m})
		cur = coarse
	}

	// Initial partition on the coarsest level.
	coarsest := levels[len(levels)-1].h
	part := p.initialBisection(coarsest, frac0, max0, max1, seed)
	p.repairBalance(coarsest, part, max0, max1, sc)
	p.fmRefine(coarsest, part, max0, max1, sc)

	// Uncoarsen and refine.
	for li := len(levels) - 1; li > 0; li-- {
		fine := levels[li-1].h
		m := levels[li].toCoarse
		finePart := make([]int32, fine.NumV)
		for v := 0; v < fine.NumV; v++ {
			finePart[v] = part[m[v]]
		}
		part = finePart
		p.fmRefine(fine, part, max0, max1, sc)
	}
	return part
}

// coarsen performs one round of heavy-edge matching and contraction.
func (p *partitioner) coarsen(h *H, totalWeight int64, rng *rand.Rand, sc *scratch) (*H, []int32) {
	n := h.NumV
	// Cap the weight of contracted vertices so coarsening cannot create a
	// vertex too heavy to balance.
	cap_ := totalWeight / 12
	if cap_ < 1 {
		cap_ = 1
	}

	order := rng.Perm(n)
	match := grow(sc.match, n)
	sc.match = match
	for i := range match {
		match[i] = -1
	}
	// rating is dense and all zero between vertices; touched lists the
	// entries the current vertex set, so resetting them costs no more than
	// setting them did.
	rating := grow(sc.rating, n)
	clear(rating)
	touched := sc.touched
	for _, vi := range order {
		v := int32(vi)
		if match[v] >= 0 {
			continue
		}
		// Rate neighbors by heavy-edge rating w(e)/(|e|-1).
		touched = touched[:0]
		for _, ei := range h.Inc[v] {
			e := &h.Edges[ei]
			r := float64(e.Weight) / float64(len(e.Pins)-1)
			for _, u := range e.Pins {
				if u != v && match[u] < 0 && h.VWeight[v]+h.VWeight[u] <= cap_ {
					if rating[u] == 0 {
						touched = append(touched, u)
					}
					rating[u] += r
				}
			}
		}
		// The best rating wins; ties go to the lowest id.
		var best int32 = -1
		bestScore := 0.0
		for _, u := range touched {
			if s := rating[u]; s > bestScore || (s == bestScore && best >= 0 && u < best) {
				best, bestScore = u, s
			}
			rating[u] = 0
		}
		if best >= 0 {
			match[v] = best
			match[best] = v
		}
	}
	sc.rating, sc.touched = rating, touched

	// Assign coarse IDs. cmap outlives this call (it becomes the level's
	// fine→coarse projection), so it is always freshly allocated.
	cmap := make([]int32, n)
	for i := range cmap {
		cmap[i] = -1
	}
	var nc int32
	for v := int32(0); v < int32(n); v++ {
		if cmap[v] >= 0 {
			continue
		}
		cmap[v] = nc
		if m := match[v]; m >= 0 {
			cmap[m] = nc
		}
		nc++
	}
	cw := make([]int64, nc)
	for v := 0; v < n; v++ {
		cw[cmap[v]] += h.VWeight[v]
	}
	coarse := New(cw)

	// Remap edges; merge identical ones.
	type emap struct {
		idx  int
		pins []int32
	}
	byHash := map[uint64][]emap{}
	hashPins := func(pins []int32) uint64 {
		hsh := uint64(1469598103934665603)
		for _, x := range pins {
			hsh ^= uint64(uint32(x))
			hsh *= 1099511628211
		}
		return hsh
	}
	equalPins := func(a, b []int32) bool {
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
	pinBuf := sc.pinBuf
	for ei := range h.Edges {
		pinBuf = pinBuf[:0]
		for _, pv := range h.Edges[ei].Pins {
			pinBuf = append(pinBuf, cmap[pv])
		}
		pins := sortedCopy(pinBuf)
		// Dedup (sorted).
		out := pins[:0]
		for i, x := range pins {
			if i == 0 || x != pins[i-1] {
				out = append(out, x)
			}
		}
		pins = out
		if len(pins) < 2 {
			continue
		}
		hsh := hashPins(pins)
		merged := false
		for _, em := range byHash[hsh] {
			if equalPins(em.pins, pins) {
				coarse.Edges[em.idx].Weight += h.Edges[ei].Weight
				merged = true
				break
			}
		}
		if !merged {
			coarse.Edges = append(coarse.Edges, Edge{Pins: pins, Weight: h.Edges[ei].Weight})
			byHash[hsh] = append(byHash[hsh], emap{idx: len(coarse.Edges) - 1, pins: pins})
		}
	}
	sc.pinBuf = pinBuf
	coarse.Finish()
	return coarse, cmap
}

// initialBisection tries several randomized greedy growths — concurrently
// when the pool allows — and returns the best balanced assignment. Each run
// draws from its own derived seed and the winner is chosen by a total
// order (balanced, then cut, then run index), so the choice is identical
// for every worker count and schedule.
func (p *partitioner) initialBisection(h *H, frac0 float64, max0, max1 int64, seed int64) []int32 {
	total := h.TotalVWeight()
	target0 := int64(float64(total) * frac0)
	type runOut struct {
		part     []int32
		cut      int64
		balanced bool
	}
	outs := make([]runOut, p.opt.InitRuns)
	p.pool.ForEach(p.opt.InitRuns, func(run int) {
		rng := rand.New(rand.NewSource(par.Derive(seed, seedInit, int64(run))))
		sc := new(scratch)
		part := p.greedyGrow(h, target0, rng)
		p.fmRefine(h, part, max0, max1, sc)
		r := Evaluate(h, 2, part)
		outs[run] = runOut{
			part:     part,
			cut:      r.CutKm1,
			balanced: r.PartWeights[0] <= max0 && r.PartWeights[1] <= max1,
		}
	})
	best := 0
	for run := 1; run < len(outs); run++ {
		a, b := &outs[run], &outs[best]
		if (a.balanced && !b.balanced) ||
			(a.balanced == b.balanced && a.cut < b.cut) {
			best = run
		}
	}
	return outs[best].part
}

// greedyGrow grows side 0 from a random seed via hyperedge-neighbor BFS
// until its weight reaches target0.
func (p *partitioner) greedyGrow(h *H, target0 int64, rng *rand.Rand) []int32 {
	n := h.NumV
	part := make([]int32, n)
	for i := range part {
		part[i] = 1
	}
	inQueue := make([]bool, n)
	var queue []int32
	var w0 int64
	pick := func() int32 {
		// Random vertex still on side 1.
		for tries := 0; tries < 8; tries++ {
			v := int32(rng.Intn(n))
			if part[v] == 1 {
				return v
			}
		}
		for v := int32(0); v < int32(n); v++ {
			if part[v] == 1 {
				return v
			}
		}
		return -1
	}
	for w0 < target0 {
		if len(queue) == 0 {
			v := pick()
			if v < 0 {
				break
			}
			queue = append(queue, v)
			inQueue[v] = true
		}
		v := queue[0]
		queue = queue[1:]
		if part[v] == 0 {
			continue
		}
		part[v] = 0
		w0 += h.VWeight[v]
		for _, ei := range h.Inc[v] {
			for _, u := range h.Edges[ei].Pins {
				if part[u] == 1 && !inQueue[u] {
					inQueue[u] = true
					queue = append(queue, u)
				}
			}
		}
	}
	return part
}

// fmItem is a heap entry with lazy invalidation.
type fmItem struct {
	gain int64
	v    int32
}

// fmHeap orders moves by gain descending with an explicit vertex-id
// ascending tie-break: without it equal-gain pops fall back to heap
// internals — still deterministic, but fragile under any reordering of
// pushes. The total order makes the move sequence (and the partition)
// depend only on the graph and seed.
type fmHeap []fmItem

func (h fmHeap) Len() int { return len(h) }
func (h fmHeap) Less(i, j int) bool {
	if h[i].gain != h[j].gain {
		return h[i].gain > h[j].gain
	}
	return h[i].v < h[j].v
}
func (h fmHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *fmHeap) Push(x any)   { *h = append(*h, x.(fmItem)) }
func (h *fmHeap) Pop() any     { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

// fmMove records one applied FM move for rollback.
type fmMove struct {
	v    int32
	from int32
}

// fmRefine runs Fiduccia–Mattheyses passes on a 2-way partition in place.
func (p *partitioner) fmRefine(h *H, part []int32, max0, max1 int64, sc *scratch) {
	n := h.NumV
	if n == 0 {
		return
	}
	maxSide := [2]int64{max0, max1}

	pinCount := grow(sc.pinCount, len(h.Edges))
	sc.pinCount = pinCount
	var side [2]int64
	recount := func() {
		side = [2]int64{}
		for v := 0; v < n; v++ {
			side[part[v]] += h.VWeight[v]
		}
		for ei := range h.Edges {
			pinCount[ei] = [2]int64{}
			for _, pv := range h.Edges[ei].Pins {
				pinCount[ei][part[pv]]++
			}
		}
	}
	gainOf := func(v int32) int64 {
		s := part[v]
		var g int64
		for _, ei := range h.Inc[v] {
			pc := pinCount[ei]
			if pc[s] == int64(len(h.Edges[ei].Pins)) {
				g -= h.Edges[ei].Weight // edge becomes cut
			} else if pc[s] == 1 {
				g += h.Edges[ei].Weight // edge becomes uncut
			}
		}
		return g
	}

	for pass := 0; pass < p.opt.MaxFMPasses; pass++ {
		recount()
		locked := grow(sc.locked, n)
		sc.locked = locked
		for i := range locked {
			locked[i] = false
		}
		gain := grow(sc.gain, n)
		sc.gain = gain
		sc.hp = sc.hp[:0]
		for v := int32(0); v < int32(n); v++ {
			gain[v] = gainOf(v)
			sc.hp = append(sc.hp, fmItem{gain: gain[v], v: v})
		}
		heap.Init(&sc.hp)

		moves := sc.moves[:0]
		var cum, bestCum int64
		bestIdx := -1

		for sc.hp.Len() > 0 {
			it := heap.Pop(&sc.hp).(fmItem)
			v := it.v
			if locked[v] || it.gain != gain[v] {
				continue // stale entry
			}
			from := part[v]
			to := 1 - from
			if side[to]+h.VWeight[v] > maxSide[to] {
				continue // would break balance; drop (vertex may re-enter via updates)
			}
			// Apply the move.
			locked[v] = true
			part[v] = to
			side[from] -= h.VWeight[v]
			side[to] += h.VWeight[v]
			cum += it.gain
			moves = append(moves, fmMove{v: v, from: from})
			if cum > bestCum {
				bestCum = cum
				bestIdx = len(moves) - 1
			}
			// Update pin counts and neighbor gains. A pin's gain term for
			// edge e reads only whether its side holds all of e's pins or
			// just one, and that can change only when the move crosses a
			// critical count: 1 or 2 pins on the from side, 0 or 1 on the
			// to side. Past any other edge every gain stays put, so its pin
			// scan would push nothing.
			for _, ei := range h.Inc[v] {
				pc := &pinCount[ei]
				critical := pc[from] <= 2 || pc[to] <= 1
				pc[from]--
				pc[to]++
				if !critical {
					continue
				}
				for _, u := range h.Edges[ei].Pins {
					if !locked[u] {
						g := gainOf(u)
						if g != gain[u] {
							gain[u] = g
							heap.Push(&sc.hp, fmItem{gain: g, v: u})
						}
					}
				}
			}
		}
		sc.moves = moves

		// Roll back past the best prefix.
		for i := len(moves) - 1; i > bestIdx; i-- {
			m := moves[i]
			side[part[m.v]] -= h.VWeight[m.v]
			side[m.from] += h.VWeight[m.v]
			part[m.v] = m.from
		}
		if bestCum <= 0 {
			break
		}
	}
}

// repairBalance greedily moves vertices off an overweight side, choosing
// the move that hurts the cut least. It runs on the coarsest level, where
// vertex counts are small; uncoarsening preserves side weights, so balance
// established here survives projection.
func (p *partitioner) repairBalance(h *H, part []int32, max0, max1 int64, sc *scratch) {
	maxSide := [2]int64{max0, max1}
	n := h.NumV
	var side [2]int64
	for v := 0; v < n; v++ {
		side[part[v]] += h.VWeight[v]
	}
	pinCount := grow(sc.pinCount, len(h.Edges))
	sc.pinCount = pinCount
	for ei := range h.Edges {
		pinCount[ei] = [2]int64{}
		for _, pv := range h.Edges[ei].Pins {
			pinCount[ei][part[pv]]++
		}
	}
	gainOf := func(v int32) int64 {
		s := part[v]
		var g int64
		for _, ei := range h.Inc[v] {
			pc := pinCount[ei]
			if pc[s] == int64(len(h.Edges[ei].Pins)) {
				g -= h.Edges[ei].Weight
			} else if pc[s] == 1 {
				g += h.Edges[ei].Weight
			}
		}
		return g
	}
	for iter := 0; iter < n; iter++ {
		var over int32 = -1
		for s := int32(0); s < 2; s++ {
			if side[s] > maxSide[s] {
				over = s
				break
			}
		}
		if over < 0 {
			return
		}
		// Equal-gain candidates resolve to the lowest vertex id: the scan
		// ascends and replaces only on a strict improvement, so the
		// tie-break is explicit rather than an artifact of scan order.
		best := int32(-1)
		var bestGain int64 = math.MinInt64
		for v := int32(0); v < int32(n); v++ {
			if part[v] != over || h.VWeight[v] == 0 {
				continue
			}
			if g := gainOf(v); g > bestGain || (g == bestGain && best >= 0 && v < best) {
				best, bestGain = v, g
			}
		}
		if best < 0 {
			return
		}
		to := 1 - over
		part[best] = to
		side[over] -= h.VWeight[best]
		side[to] += h.VWeight[best]
		for _, ei := range h.Inc[best] {
			pinCount[ei][over]--
			pinCount[ei][to]++
		}
	}
}
