// Package hostmodel is the evaluation substrate that stands in for the
// paper's dual-socket 48-core Xeon 8260 testbed (Table 2): an analytic
// timing and performance-counter model of a multicore host executing
// statically-scheduled full-cycle simulator code.
//
// The model captures the mechanisms §6.4 of the paper identifies as the
// sources of its (super)linear speedups:
//
//   - per-thread instruction footprint vs. the L1I/L2/L3 capacities,
//     using the cyclic-reuse hit model validated in internal/cachesim:
//     once a thread's code slice fits in its private L2, front-end stalls
//     collapse and IPC roughly doubles;
//   - branch predictor capacity vs. static branch count;
//   - barrier synchronization cost growing with thread count and with
//     cross-socket placement;
//   - NUMA placement: interleaving across two sockets doubles aggregate
//     L3 but raises synchronization latency — unprofitable except for
//     designs too large for one socket's L3 (Figure 11).
//
// Because this reproduction's designs are ~1/32 the node count of the
// paper's (see internal/designs), ScaledXeon8260 shrinks all capacity
// parameters by the same factor so footprint/capacity ratios — and hence
// every regime boundary — match the paper's.
package hostmodel

import (
	"math"

	"repro/internal/cachesim"
	"repro/internal/sim"
)

// CPU describes the modeled host.
type CPU struct {
	Name           string
	CoresPerSocket int
	Sockets        int
	GHz            float64

	// Capacities in bytes (per core for L1/L2, per socket for L3).
	L1I, L1D, L2, L3Socket float64
	// BTBEntries is the branch predictor capacity (static branches).
	BTBEntries float64

	// Latencies in core cycles.
	L2Lat, L3Lat, DramLat float64
	MispredictPenalty     float64

	// CPIBase is the no-stall CPI of the simulator's instruction mix.
	CPIBase float64
	// FetchOverlap scales raw fetch-miss latency down to observed stall
	// (decoupled front ends hide most of it).
	FetchOverlap float64
	// PrefetchBonus further reduces fetch stalls as code coverage in the
	// L2 improves (the paper observes prefetcher accuracy rising as the
	// per-core footprint shrinks).
	PrefetchBonus float64
	// MemOpsPerInstr and DataStallScale shape the (mild) data-side term.
	MemOpsPerInstr float64
	DataStallScale float64
	// BranchBaseRate and BranchCapRate shape the misprediction rate:
	// rate = base + cap·(1 − BTB coverage).
	BranchBaseRate float64
	BranchCapRate  float64
	// BranchesPerInstr is the dynamic branch density.
	BranchesPerInstr float64

	// Synchronization (nanoseconds).
	BarrierBaseNs     float64
	BarrierPerLog2Ns  float64
	InterSocketFactor float64
	// TaskSyncNs is the per-dependence cost of the Verilator-style
	// done-flag handshake.
	TaskSyncNs float64
	// CopyBytesPerNs is the global-update memcpy bandwidth.
	CopyBytesPerNs float64
}

// Xeon8260 returns the full-size host of Table 2.
func Xeon8260() CPU {
	return CPU{
		Name:           "2x Xeon Platinum 8260",
		CoresPerSocket: 24,
		Sockets:        2,
		GHz:            2.4,
		L1I:            32 * 1024,
		L1D:            32 * 1024,
		L2:             1024 * 1024,
		L3Socket:       35.75 * 1024 * 1024,
		BTBEntries:     4096,

		L2Lat:             10,
		L3Lat:             80,
		DramLat:           300,
		MispredictPenalty: 15,

		CPIBase:          0.85,
		FetchOverlap:     0.046,
		PrefetchBonus:    0.85,
		MemOpsPerInstr:   0.56,
		DataStallScale:   0.05,
		BranchBaseRate:   0.003,
		BranchCapRate:    0.05,
		BranchesPerInstr: 0.015,

		BarrierBaseNs:     120,
		BarrierPerLog2Ns:  60,
		InterSocketFactor: 1.5,
		TaskSyncNs:        45,
		CopyBytesPerNs:    16,
	}
}

// DesignScaleDivisor is the approximate node-count ratio between the
// paper's designs and this reproduction's at designs.Config{Scale: 1}.
const DesignScaleDivisor = 46.0

// SyncScaleDivisor shrinks synchronization costs for the scaled host.
// Cycle times of the scaled designs are ~32x shorter than the paper's, so
// fixed-size barrier costs would dominate and mask the scaling behavior;
// scaling them partially keeps the amortization regime comparable.
const SyncScaleDivisor = 6.0

// ScaledXeon8260 shrinks the capacity parameters by DesignScaleDivisor (and
// synchronization costs by SyncScaleDivisor) so the scaled designs exercise
// the same regimes the full designs do on the real machine. Latencies are
// unchanged.
func ScaledXeon8260() CPU {
	c := Xeon8260()
	c.Name += " (capacity-scaled)"
	c.L1I /= DesignScaleDivisor
	c.L1D /= DesignScaleDivisor
	// L2 is scaled slightly softer for the same code-density reason: the
	// paper's per-core code at 24 threads (~1.4 MB) sits just above its
	// 1 MB L2, the knee where IPC doubles.
	c.L2 /= DesignScaleDivisor * 0.84
	// The L3 is scaled slightly harder: the scaled designs emit ~15% less
	// code per node than the paper's C++ backend (and the k-way-refined
	// partitions replicate less of it), and the paper's MegaBOOM-4C binary
	// (31-36 MB) sits right at the 35.75 MB L3 capacity — the regime
	// Figure 11 depends on.
	c.L3Socket /= DesignScaleDivisor * 1.08
	c.BTBEntries /= DesignScaleDivisor
	c.BarrierBaseNs /= SyncScaleDivisor
	c.BarrierPerLog2Ns /= SyncScaleDivisor
	c.TaskSyncNs /= SyncScaleDivisor
	return c
}

// Placement chooses how threads map to sockets.
type Placement int

// Placements (Figure 11).
const (
	// SameSocket packs threads onto socket 0 first.
	SameSocket Placement = iota
	// Interleaved alternates threads across both sockets.
	Interleaved
)

func (p Placement) String() string {
	if p == Interleaved {
		return "interleaved"
	}
	return "same-socket"
}

// ThreadWork is one thread's per-simulated-cycle workload.
type ThreadWork struct {
	Instrs float64 // interpreter instructions per simulated cycle
	// CostUnits is the thread's predicted ideal execution cost in
	// cost-model units (1 unit = 0.01 ns at stall-free CPI). Timing is
	// cost-based so that op-mix imbalance (what the cost model exists to
	// fix) shows up as real time.
	CostUnits   float64
	CodeBytes   float64 // compiled code footprint
	DataBytes   float64 // private data working set
	Branches    float64 // static data-dependent branch sites
	UpdateBytes float64 // shadow segment published per cycle
}

// IdealNs is the thread's stall-free evaluation time.
func (w *ThreadWork) IdealNs() float64 { return w.CostUnits * 0.01 }

// WorkFromProgram extracts per-thread workloads from a compiled program.
func WorkFromProgram(p *sim.Program) []ThreadWork {
	out := make([]ThreadWork, p.NumThreads)
	// Shared data (inputs + all register segments) is read by everyone;
	// attribute the global footprint plus private temps to each thread.
	globalBytes := float64(p.GlobalWords) * 8
	for t := range p.Threads {
		th := &p.Threads[t]
		out[t] = ThreadWork{
			Instrs:      float64(len(th.Code)),
			CostUnits:   float64(th.CostUnits),
			CodeBytes:   float64(th.CodeBytes()),
			DataBytes:   float64(th.NumTemps+th.ShadowWords)*8 + globalBytes*0.15,
			Branches:    float64(th.Branches),
			UpdateBytes: float64(th.ShadowWords) * 8,
		}
	}
	return out
}

// socketOf returns the socket a thread runs on under a placement.
func socketOf(cpu CPU, pl Placement, t, total int) int {
	if pl == Interleaved && cpu.Sockets > 1 {
		return t % cpu.Sockets
	}
	// Pack socket 0 first.
	if t < cpu.CoresPerSocket {
		return 0
	}
	return 1
}

// Counters aggregates modeled performance-counter rates (per simulated
// cycle, summed over threads) in the shape of Table 3.
type Counters struct {
	Instructions   float64
	L1IMisses      float64
	L2CodeRdMiss   float64
	L2CodeRdHit    float64
	LLCLoadMisses  float64 // code fetches that fall through to DRAM
	L1DMisses      float64
	Branches       float64
	BranchMisses   float64
	FetchStallCyc  float64
	EvalNsTotal    float64 // Σ per-thread evaluation time
	WallNs         float64 // modeled wall time per simulated cycle
	CPUNs          float64 // wall × threads (threads spin at barriers)
	IPC            float64
	BranchMissRate float64
}

// Eval is the modeled execution of one simulated cycle.
type Eval struct {
	ThreadEvalNs []float64
	UpdateNs     float64
	BarrierNs    float64
	CycleNs      float64
	KHz          float64
	Counters     Counters
}

// Evaluate models one simulated cycle of a RepCut-style two-phase parallel
// simulator with the given per-thread workloads.
func Evaluate(cpu CPU, works []ThreadWork, pl Placement) Eval {
	n := len(works)
	ev := Eval{ThreadEvalNs: make([]float64, n)}

	// Socket-level aggregate L3 occupancy: every thread's code plus its
	// data working set competes for the shared, per-socket L3.
	sockOcc := make([]float64, cpu.Sockets)
	for t := range works {
		sockOcc[socketOf(cpu, pl, t, n)] += works[t].CodeBytes + 0.5*works[t].DataBytes
	}

	var maxEval, maxUpdate float64
	for t := range works {
		w := &works[t]
		cpi, counters := threadCPI(cpu, w, sockOcc[socketOf(cpu, pl, t, n)])
		// Ideal (op-cost) time plus per-instruction stall cycles: stalls
		// are front-end/branch events, so they scale with instruction
		// count, not with op cost.
		evalNs := w.IdealNs() + w.Instrs*(cpi-cpu.CPIBase)/cpu.GHz
		ev.ThreadEvalNs[t] = evalNs
		if evalNs > maxEval {
			maxEval = evalNs
		}
		upd := w.UpdateBytes / cpu.CopyBytesPerNs
		if upd > maxUpdate {
			maxUpdate = upd
		}
		addCounters(&ev.Counters, w, counters, evalNs)
	}

	// Two barriers per cycle: this models the paper's §5.1 runtime, not
	// sim.Engine, which crosses one (DESIGN.md §4 "Runtime protocol").
	barrier := 2 * (cpu.BarrierBaseNs + cpu.BarrierPerLog2Ns*math.Log2(float64(n)+1))
	if crossesSockets(cpu, pl, n) {
		barrier *= cpu.InterSocketFactor
	}
	if n == 1 {
		barrier = 0 // serial simulator has no synchronization
	}
	ev.BarrierNs = barrier
	ev.UpdateNs = maxUpdate
	ev.CycleNs = maxEval + maxUpdate + barrier
	ev.KHz = 1e6 / ev.CycleNs

	ev.Counters.WallNs = ev.CycleNs
	ev.Counters.CPUNs = ev.CycleNs * float64(n)
	if ev.Counters.EvalNsTotal > 0 {
		ev.Counters.IPC = ev.Counters.Instructions / (ev.Counters.EvalNsTotal * cpu.GHz)
	}
	if ev.Counters.Branches > 0 {
		ev.Counters.BranchMissRate = ev.Counters.BranchMisses / ev.Counters.Branches
	}
	return ev
}

// threadCPI returns the modeled cycles-per-instruction for one thread and
// its per-instruction counter rates.
func threadCPI(cpu CPU, w *ThreadWork, socketOcc float64) (float64, perInstr) {
	var pi perInstr
	linesPerInstr := float64(sim.InstrBytes) / 64.0

	// Instruction-side hierarchy (cyclic reuse). Code shares the private
	// L2 with the thread's data working set, so the effective code
	// capacity shrinks as data grows.
	effL2 := cpu.L2 - 0.1*w.DataBytes
	if effL2 < cpu.L2*0.25 {
		effL2 = cpu.L2 * 0.25
	}
	inL1 := cachesim.CyclicHitRatio(cpu.L1I, w.CodeBytes)
	inL2 := cachesim.CyclicHitRatio(effL2, w.CodeBytes)
	inL3 := cachesim.CyclicHitRatio(cpu.L3Socket, socketOcc)
	if inL2 < inL1 {
		inL2 = inL1
	}
	if inL3 < inL2 {
		inL3 = inL2
	}
	l1Miss := (1 - inL1) * linesPerInstr
	l2Serve := (inL2 - inL1) * linesPerInstr
	l3Serve := (inL3 - inL2) * linesPerInstr
	dramServe := (1 - inL3) * linesPerInstr
	pi.l1iMiss = l1Miss
	pi.l2Hit = l2Serve
	pi.l2Miss = l3Serve + dramServe
	pi.llcMiss = dramServe
	overlap := cpu.FetchOverlap * (1 - cpu.PrefetchBonus*inL2)
	fetchStall := overlap * (l2Serve*cpu.L2Lat + l3Serve*cpu.L3Lat + dramServe*cpu.DramLat)
	pi.fetchStall = fetchStall

	// Branches.
	btbCover := cachesim.BTBHitRatio(cpu.BTBEntries, w.Branches)
	missRate := cpu.BranchBaseRate + cpu.BranchCapRate*(1-btbCover)
	pi.branches = cpu.BranchesPerInstr
	pi.branchMiss = cpu.BranchesPerInstr * missRate
	branchStall := pi.branchMiss * cpu.MispredictPenalty

	// Data side (mild: full-cycle simulators enjoy data locality).
	dHit := cachesim.CyclicHitRatio(cpu.L1D, w.DataBytes*0.5)
	pi.l1dMiss = cpu.MemOpsPerInstr * (1 - dHit)
	dataStall := pi.l1dMiss * cpu.L2Lat * cpu.DataStallScale

	return cpu.CPIBase + fetchStall + branchStall + dataStall, pi
}

type perInstr struct {
	l1iMiss, l2Hit, l2Miss, llcMiss float64
	l1dMiss                         float64
	branches, branchMiss            float64
	fetchStall                      float64
}

func addCounters(c *Counters, w *ThreadWork, pi perInstr, evalNs float64) {
	c.Instructions += w.Instrs
	c.L1IMisses += w.Instrs * pi.l1iMiss
	c.L2CodeRdHit += w.Instrs * pi.l2Hit
	c.L2CodeRdMiss += w.Instrs * pi.l2Miss
	c.LLCLoadMisses += w.Instrs * pi.llcMiss
	c.L1DMisses += w.Instrs * pi.l1dMiss
	c.Branches += w.Instrs * pi.branches
	c.BranchMisses += w.Instrs * pi.branchMiss
	c.FetchStallCyc += w.Instrs * pi.fetchStall
	c.EvalNsTotal += evalNs
}

// crossesSockets reports whether the placement uses both sockets.
func crossesSockets(cpu CPU, pl Placement, n int) bool {
	if cpu.Sockets < 2 {
		return false
	}
	if pl == Interleaved {
		return n > 1
	}
	return n > cpu.CoresPerSocket
}

// MaxThreads returns the host's core count.
func (c CPU) MaxThreads() int { return c.CoresPerSocket * c.Sockets }
