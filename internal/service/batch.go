package service

import (
	"sync"
	"time"

	"repro/internal/bitvec"
	"repro/internal/sim"
)

// MinLaneGroup is the placement break-even: a program's sessions share a
// lane group only once it has this many live sessions asking for the
// default placement. One ×16 round costs the same whatever its occupancy,
// and it costs about five solo lane-cycles (BenchmarkBatchEval, RocketChip-1C
// @0.5 on a 2-core Xeon VM, go1.24, min–max of five runs: batch/16 8.48–8.71
// µs per round against solo/1 1.69–1.98 µs per cycle, median ratio 4.85; in a
// slower spell 12.95–13.72 against 2.77–3.10), so a group carrying fewer
// than ⌈round / solo cycle⌉ = 5 lanes per round loses to private engines.
// That ratio is engine-only: it leaves out the group-commit linger, and it
// comes from one design at one thread count. No benchmark workload runs
// five or more co-tenants of one design, so the value is unverified end to
// end; it stays fixed until such a workload can measure both sides of it.
const MinLaneGroup = 5

// batchPool coalesces sessions that simulate the same compiled program
// into shared sim.BatchEngine groups, so the server executes one
// instruction dispatch for up to laneWidth sessions instead of one per
// session. Groups are keyed by program fingerprint. Placement is decided
// once, at create or restore time: a session gets a lane only when its
// program has at least MinLaneGroup live tenants (sessions that asked for
// the default placement), and a session that cannot be batched (batching
// disabled, program ineligible, below the break-even) runs a private
// engine the caller builds. Sessions never migrate between the two, except
// that VCD capture spills a lane to a private engine (Session.spill).
type batchPool struct {
	laneWidth int
	m         *Metrics

	mu      sync.Mutex
	groups  map[uint64][]*batchGroup
	tenants map[uint64]int // live tenants per fingerprint
}

// newBatchPool creates a pool handing out lanes in groups of laneWidth.
// Width <= 1 disables batching: place never claims a lane.
func newBatchPool(laneWidth int, m *Metrics) *batchPool {
	return &batchPool{
		laneWidth: laneWidth,
		m:         m,
		groups:    make(map[uint64][]*batchGroup),
		tenants:   make(map[uint64]int),
	}
}

// place gives a session that asked for the default placement its backend.
// A session over a lane-eligible program becomes a tenant of its
// fingerprint (Session.release ends that) and, once the fingerprint has
// MinLaneGroup tenants, claims a lane, creating a new group when every
// existing one is full. Otherwise s.b stays nil and the caller builds a
// private engine; belowBreakEven reports that the break-even was the reason.
func (p *batchPool) place(s *Session) (belowBreakEven bool) {
	e := s.entry
	if p == nil || p.laneWidth <= 1 || e.Compiled.Program.Shared {
		return false
	}
	p.mu.Lock()
	s.tenant = p
	p.tenants[e.Fingerprint]++
	if p.tenants[e.Fingerprint] < MinLaneGroup {
		p.mu.Unlock()
		return true
	}
	var g *batchGroup
	lane := 0
	for _, cand := range p.groups[e.Fingerprint] {
		cand.mu.Lock()
		for l, occ := range cand.occupied {
			if !occ {
				cand.occupied[l] = true
				cand.nOcc++
				g, lane = cand, l
				break
			}
		}
		cand.mu.Unlock()
		if g != nil {
			break
		}
	}
	if g == nil {
		be, err := sim.NewBatchEngine(e.Compiled.Program, p.laneWidth)
		if err != nil {
			p.mu.Unlock()
			return false
		}
		g = &batchGroup{
			pool:     p,
			fp:       e.Fingerprint,
			be:       be,
			occupied: make([]bool, p.laneWidth),
			target:   make([]int, p.laneWidth),
			mask:     make([]bool, p.laneWidth),
		}
		g.cond = sync.NewCond(&g.mu)
		g.occupied[0] = true
		g.nOcc = 1
		p.groups[e.Fingerprint] = append(p.groups[e.Fingerprint], g)
	}
	p.mu.Unlock()
	// A recycled lane carries its previous occupant's state; give the new
	// session power-on state (register inits included).
	l := &laneBackend{g: g, lane: lane}
	l.do(func(be *sim.BatchEngine, lane int) error { be.ResetLane(lane); return nil })
	s.b = l
	return false
}

// leave ends a tenancy place began.
func (p *batchPool) leave(fp uint64) {
	p.mu.Lock()
	if p.tenants[fp]--; p.tenants[fp] == 0 {
		delete(p.tenants, fp)
	}
	p.mu.Unlock()
}

// free returns a lane to its group, dropping the group (and its engine)
// once the last occupant leaves.
func (p *batchPool) free(g *batchGroup, lane int) {
	p.mu.Lock()
	g.mu.Lock()
	g.occupied[lane] = false
	g.target[lane] = 0
	g.nOcc--
	empty := g.nOcc == 0
	g.mu.Unlock()
	if empty {
		list := p.groups[g.fp]
		for i, cand := range list {
			if cand == g {
				list[i] = list[len(list)-1]
				list = list[:len(list)-1]
				break
			}
		}
		if len(list) == 0 {
			delete(p.groups, g.fp)
		} else {
			p.groups[g.fp] = list
		}
	}
	p.mu.Unlock()
}

// stats reports the pool gauges: live groups, occupied lanes, and total
// lane capacity across groups.
func (p *batchPool) stats() (groups, occupied, capacity int) {
	if p == nil {
		return 0, 0, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, list := range p.groups {
		for _, g := range list {
			g.mu.Lock()
			groups++
			occupied += g.nOcc
			capacity += len(g.occupied)
			g.mu.Unlock()
		}
	}
	return groups, occupied, capacity
}

// batchGroup is one shared BatchEngine plus the frontier protocol that
// lets independent sessions step it concurrently. Each lane belongs to at
// most one session; sessions request cycles by raising their lane's
// target, and one session at a time becomes the round leader: it snapshots
// every lane with pending cycles, runs their common prefix in a single
// RunMasked call, and repeats until its own target drains. Sessions whose
// cycles were carried by someone else's round never touch the engine at
// all — that coalescing is where the batching win comes from.
//
// Engine-access invariant: e.be may be touched only while holding mu with
// running == false — except by the unique leader that set running = true,
// which runs RunMasked with the lock released so other sessions can
// register targets (and block politely) in the meantime.
type batchGroup struct {
	pool *batchPool
	fp   uint64
	be   *sim.BatchEngine

	mu       sync.Mutex
	cond     *sync.Cond
	running  bool
	occupied []bool
	nOcc     int
	target   []int  // pending cycles per lane
	mask     []bool // scratch round mask (leader-only while running)

	// nsPerCycle is an EWMA of wall nanoseconds per simulated cycle over
	// recent rounds, used to size the group-commit linger budget.
	nsPerCycle float64
}

// Group-commit linger: a would-be leader of an under-occupied round
// yields in batchLinger slices before running, giving co-tenant sessions'
// in-flight step requests a chance to register and share the round.
// Without it, on few cores, a round monopolizes the CPU so no companion
// can register until it ends, and every round degenerates to one lane
// paying the full lane-width execution cost. The total budget is sized
// proportionally to the predicted cost of the round about to run (lingerFrac
// of s cycles at the group's observed ns/cycle), so big rounds wait
// patiently for co-tenants finishing their poke/peek round trips while
// small rounds launch almost immediately; the clamps bound the added
// latency when the prediction is off or no history exists yet.
const (
	batchLinger    = 100 * time.Microsecond
	lingerFrac     = 0.1
	minLingerTotal = 200 * time.Microsecond
	maxLingerTotal = 5 * time.Millisecond
)

// lingerBudget sizes the group-commit linger for a round of s cycles.
// Caller holds g.mu.
func (g *batchGroup) lingerBudget(s int) time.Duration {
	d := time.Duration(lingerFrac * g.nsPerCycle * float64(s))
	if d < minLingerTotal {
		d = minLingerTotal
	}
	if d > maxLingerTotal {
		d = maxLingerTotal
	}
	return d
}

// step advances the session's lane by n cycles and returns its new cycle
// count. The calling session either leads rounds until its target drains
// or waits while another leader's rounds carry it.
func (g *batchGroup) step(lane, n int) uint64 {
	m := g.pool.m
	lingered := false
	g.mu.Lock()
	g.target[lane] += n
	for g.target[lane] > 0 {
		if g.running {
			g.cond.Wait()
			continue
		}
		// Lead one round: run the common frontier prefix of every lane
		// with pending cycles.
		s, lanes := 0, 0
		for l, t := range g.target {
			g.mask[l] = t > 0
			if t > 0 {
				lanes++
				if s == 0 || t < s {
					s = t
				}
			}
		}
		if !lingered && lanes < g.nOcc {
			// Under-occupied round with co-tenants: linger for a budget
			// proportional to the round's predicted cost, so companions mid
			// poke/peek round trip can register and share it. If one starts
			// leading meanwhile, its round carries this lane too.
			lingered = true
			deadline := time.Now().Add(g.lingerBudget(s))
			for lanes < g.nOcc && time.Now().Before(deadline) {
				g.mu.Unlock()
				time.Sleep(batchLinger)
				g.mu.Lock()
				if g.running {
					break
				}
				lanes = 0
				for _, t := range g.target {
					if t > 0 {
						lanes++
					}
				}
			}
			continue
		}
		g.running = true
		g.mu.Unlock()
		t0 := time.Now()
		g.be.RunMasked(s, g.mask)
		dt := time.Since(t0)
		g.mu.Lock()
		g.running = false
		if sample := float64(dt.Nanoseconds()) / float64(s); g.nsPerCycle == 0 {
			g.nsPerCycle = sample
		} else {
			g.nsPerCycle = 0.5*g.nsPerCycle + 0.5*sample
		}
		for l := range g.target {
			if g.mask[l] {
				g.target[l] -= s
			}
		}
		m.batchRuns.Add(1)
		m.batchRunLanes.Add(int64(lanes))
		m.batchedCycles.Add(int64(s) * int64(lanes))
		g.cond.Broadcast()
	}
	c := g.be.Cycles(lane)
	g.mu.Unlock()
	return c
}

// laneBackend is a session's backend on one lane of a batch group: every
// call runs on the group's quiescent engine, except Run, which goes through
// the frontier protocol.
type laneBackend struct {
	g    *batchGroup
	lane int
}

// do runs fn with exclusive, quiescent access to the engine.
func (l *laneBackend) do(fn func(be *sim.BatchEngine, lane int) error) error {
	g := l.g
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.running {
		g.cond.Wait()
	}
	return fn(g.be, l.lane)
}

func (l *laneBackend) PokeInput(name string, v uint64) error {
	return l.do(func(be *sim.BatchEngine, lane int) error { return be.Poke(lane, name, v) })
}

func (l *laneBackend) PeekOutput(name string) (v uint64, err error) {
	err = l.do(func(be *sim.BatchEngine, lane int) (err error) { v, err = be.Peek(lane, name); return err })
	return v, err
}

func (l *laneBackend) PeekReg(name string) (v bitvec.Vec, err error) {
	err = l.do(func(be *sim.BatchEngine, lane int) (err error) { v, err = be.PeekReg(lane, name); return err })
	return v, err
}

func (l *laneBackend) Run(n int) { l.g.step(l.lane, n) }

// Cycles is a step of zero cycles: it reads the lane's count without
// waiting out another session's round, which never includes this lane.
func (l *laneBackend) Cycles() uint64 { return l.g.step(l.lane, 0) }

func (l *laneBackend) Snapshot() (s *sim.Snapshot, err error) {
	err = l.do(func(be *sim.BatchEngine, lane int) (err error) { s, err = be.SnapshotLane(lane); return err })
	return s, err
}

func (l *laneBackend) RestoreSnapshot(s *sim.Snapshot) error {
	return l.do(func(be *sim.BatchEngine, lane int) error { return be.RestoreLane(lane, s) })
}

// StateHash ignores StateHashLane's one error, a lane index out of range,
// which a held lane never is.
func (l *laneBackend) StateHash() (h uint64) {
	l.do(func(be *sim.BatchEngine, lane int) error { h, _ = be.StateHashLane(lane); return nil })
	return h
}

// free returns the lane to its group.
func (l *laneBackend) free() { l.g.pool.free(l.g, l.lane) }
