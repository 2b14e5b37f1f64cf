package experiments

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/designs"
	"repro/internal/hostmodel"
	"repro/internal/report"
	"repro/internal/sim"
)

// Table1 reproduces Table 1: design statistics after register splitting.
func (s *Suite) Table1() *report.Table {
	t := report.NewTable("Table 1: Evaluated Designs",
		"Design", "IR Nodes", "Edges", "Sink Vtx", "Sink (%)", "Reg Writes", "Mem Writes")
	for _, cfg := range s.Designs {
		st := s.Graph(cfg).Stats()
		t.Row(cfg.Name(), st.IRNodes, st.Edges, st.SinkVtx,
			report.F2(st.SinkPct), st.RegWrites, st.MemWrites)
	}
	return t
}

// Fig2Row summarizes one thread-activity profile (Figure 2): how busy the
// threads are within a simulated cycle.
type Fig2Row struct {
	Design      string
	Simulator   string
	CycleNs     float64
	Utilization float64 // mean busy fraction across threads
	MinUtil     float64 // the most-idle thread
}

// Fig2Profiles reproduces Figure 2's thread-activity comparison at 18
// threads: RepCut's single-phase execution keeps threads busy while the
// baseline stalls on dependences and stragglers.
func (s *Suite) Fig2Profiles() ([]Fig2Row, *report.Table) {
	const k = 18
	var rows []Fig2Row
	for _, cfg := range s.Designs {
		// RepCut: busy = eval time; idle = waiting for the slowest + sync.
		rp := s.RepCutPerf(cfg, k, false, 2, hostmodel.SameSocket)
		rows = append(rows, profileRow(cfg.Name(), SimRepCut, rp.CycleNs, rp.ThreadEvalNs))
		// Verilator: busy from the task timeline.
		vp := s.VerilatorPerf(cfg, k, false, hostmodel.SameSocket)
		busy := make([]float64, len(vp.TaskEval.ThreadBusyNs))
		copy(busy, vp.TaskEval.ThreadBusyNs)
		rows = append(rows, profileRow(cfg.Name(), SimVerilator, vp.CycleNs, busy))
	}
	t := report.NewTable("Figure 2: thread activity at 18 threads",
		"Design", "Simulator", "Cycle (ns)", "Mean util", "Min util")
	for _, r := range rows {
		t.Row(r.Design, r.Simulator, report.F1(r.CycleNs),
			report.Pct(r.Utilization), report.Pct(r.MinUtil))
	}
	return rows, t
}

func profileRow(design, simName string, cycleNs float64, busy []float64) Fig2Row {
	row := Fig2Row{Design: design, Simulator: simName, CycleNs: cycleNs, MinUtil: 1}
	for _, b := range busy {
		u := b / cycleNs
		row.Utilization += u
		if u < row.MinUtil {
			row.MinUtil = u
		}
	}
	row.Utilization /= float64(len(busy))
	return row
}

// Fig6Point is one replication-cost measurement.
type Fig6Point struct {
	Design      string
	K           int
	Replication float64
}

// Fig6Replication reproduces Figure 6: replication cost vs partition count.
func (s *Suite) Fig6Replication() ([]Fig6Point, *report.Table) {
	var pts []Fig6Point
	t := report.NewTable("Figure 6: replication cost (Formula 3)",
		"Design", "Threads", "Replication")
	for _, cfg := range s.Designs {
		for _, k := range s.Threads {
			if k < 2 {
				continue
			}
			res := s.Partition(cfg, k, false)
			pts = append(pts, Fig6Point{Design: cfg.Name(), K: k, Replication: res.ReplicationCost})
			t.Row(cfg.Name(), k, report.Pct(res.ReplicationCost))
		}
	}
	return pts, t
}

// Fig7Scalability reproduces Figure 7 (self-relative speedups).
func (s *Suite) Fig7Scalability(points []Perf) *report.Table {
	t := report.NewTable("Figure 7: self-relative speedup",
		"Design", "Simulator", "Threads", "Speedup")
	for _, p := range points {
		t.Row(p.Design, p.Simulator, p.K, report.F2(p.Speedup))
	}
	return t
}

// Fig8Peak reproduces Figure 8: peak speedup vs design size.
func (s *Suite) Fig8Peak(points []Perf) (map[string]map[string]float64, *report.Table) {
	peak := map[string]map[string]float64{}
	nodes := map[string]int{}
	for _, cfg := range s.Designs {
		nodes[cfg.Name()] = s.Graph(cfg).NumVertices()
	}
	for _, p := range points {
		if peak[p.Design] == nil {
			peak[p.Design] = map[string]float64{}
		}
		if p.Speedup > peak[p.Design][p.Simulator] {
			peak[p.Design][p.Simulator] = p.Speedup
		}
	}
	t := report.NewTable("Figure 8: peak self-relative speedup vs design size",
		"Design", "IR Nodes", SimRepCut, SimRepCutUW, SimVerilator, SimVerilatorPGO)
	for _, cfg := range s.Designs {
		d := cfg.Name()
		t.Row(d, nodes[d], report.F2(peak[d][SimRepCut]), report.F2(peak[d][SimRepCutUW]),
			report.F2(peak[d][SimVerilator]), report.F2(peak[d][SimVerilatorPGO]))
	}
	return peak, t
}

// Fig9Throughput reproduces Figure 9 (absolute simulation speed).
func (s *Suite) Fig9Throughput(points []Perf) *report.Table {
	t := report.NewTable("Figure 9: simulation speed (KHz)",
		"Design", "Simulator", "Threads", "KHz")
	for _, p := range points {
		t.Row(p.Design, p.Simulator, p.K, report.F1(p.KHz))
	}
	return t
}

// Fig10Point is one compiler-impact measurement.
type Fig10Point struct {
	Design    string
	Simulator string
	OptLevel  int
	K         int
	KHz       float64
}

// Fig10Compiler reproduces Figure 10: the backend optimization level stands
// in for the Clang 10 → Clang 14 upgrade. The baseline is costed from the
// O0 emitter's per-vertex counts, which the optimizer does not apply to —
// mirroring the paper's finding that the newer compiler barely moves
// Verilator.
func (s *Suite) Fig10Compiler() ([]Fig10Point, *report.Table) {
	var pts []Fig10Point
	t := report.NewTable("Figure 10: compiler impact (O0 ~ clang10, O2 ~ clang14)",
		"Design", "Simulator", "Opt", "Threads", "KHz")
	for _, cfg := range s.fig10Designs() {
		for _, k := range s.Threads {
			if k > s.CPU.MaxThreads() {
				continue
			}
			for _, opt := range []int{0, 2} {
				for _, uw := range []bool{false, true} {
					p := s.RepCutPerf(cfg, k, uw, opt, hostmodel.SameSocket)
					pts = append(pts, Fig10Point{Design: cfg.Name(), Simulator: p.Simulator,
						OptLevel: opt, K: k, KHz: p.KHz})
					t.Row(cfg.Name(), p.Simulator, fmt.Sprintf("O%d", opt), k, report.F1(p.KHz))
				}
			}
			vp := s.VerilatorPerf(cfg, k, false, hostmodel.SameSocket)
			for _, opt := range []int{0, 2} {
				pts = append(pts, Fig10Point{Design: cfg.Name(), Simulator: SimVerilator,
					OptLevel: opt, K: k, KHz: vp.KHz})
				t.Row(cfg.Name(), SimVerilator, fmt.Sprintf("O%d", opt), k, report.F1(vp.KHz))
			}
		}
	}
	return pts, t
}

func (s *Suite) fig10Designs() []designs.Config {
	want := map[string]bool{"RocketChip-1C": true, "LargeBOOM-4C": true, "MegaBOOM-4C": true}
	var out []designs.Config
	for _, cfg := range s.Designs {
		if want[cfg.Name()] {
			out = append(out, cfg)
		}
	}
	if len(out) == 0 {
		out = append(out, s.Designs[len(s.Designs)-1])
	}
	return out
}

// Fig11Point is one socket-placement measurement.
type Fig11Point struct {
	Design    string
	K         int
	Placement hostmodel.Placement
	Speedup   float64
}

// Fig11Numa reproduces Figure 11: same-socket vs interleaved placement for
// the MegaBOOM family.
func (s *Suite) Fig11Numa() ([]Fig11Point, *report.Table) {
	var pts []Fig11Point
	t := report.NewTable("Figure 11: socket allocation impact (MegaBOOM)",
		"Design", "Threads", "Same-socket", "Interleaved")
	for _, cores := range []int{1, 2, 4} {
		cfg := designs.Config{Kind: designs.MegaBoom, Cores: cores, Scale: s.Scale}
		for _, k := range s.Threads {
			if k < 2 || k > s.CPU.CoresPerSocket {
				continue
			}
			same := s.RepCutPerf(cfg, k, false, 2, hostmodel.SameSocket)
			inter := s.RepCutPerf(cfg, k, false, 2, hostmodel.Interleaved)
			pts = append(pts,
				Fig11Point{cfg.Name(), k, hostmodel.SameSocket, same.Speedup},
				Fig11Point{cfg.Name(), k, hostmodel.Interleaved, inter.Speedup})
			t.Row(cfg.Name(), k, report.F2(same.Speedup), report.F2(inter.Speedup))
		}
	}
	return pts, t
}

// Fig12Row is one per-thread phase breakdown.
type Fig12Row struct {
	Design   string
	Thread   int
	EvalNs   float64
	WaitNs   float64 // barrier + straggler wait
	IBFactor float64
}

// Fig12PhaseProfile reproduces Figure 12: per-thread cycle breakdown at 12
// threads for a small (RocketChip-4C) and the largest (MegaBOOM-4C) design.
func (s *Suite) Fig12PhaseProfile() ([]Fig12Row, *report.Table) {
	const k = 12
	var rows []Fig12Row
	t := report.NewTable("Figure 12: per-thread phases at 12 threads",
		"Design", "Thread", "Eval (ns)", "Wait (ns)", "ib_factor")
	for _, cfg := range []designs.Config{
		{Kind: designs.Rocket, Cores: 4, Scale: s.Scale},
		{Kind: designs.MegaBoom, Cores: 4, Scale: s.Scale},
	} {
		p := s.RepCutPerf(cfg, k, false, 2, hostmodel.SameSocket)
		ib := imbalanceOf(p.ThreadEvalNs)
		for th, ev := range p.ThreadEvalNs {
			wait := p.CycleNs - ev
			rows = append(rows, Fig12Row{Design: cfg.Name(), Thread: th,
				EvalNs: ev, WaitNs: wait, IBFactor: ib})
			t.Row(cfg.Name(), th, report.F1(ev), report.F1(wait), report.F2(ib))
		}
	}
	return rows, t
}

func imbalanceOf(evals []float64) float64 {
	if len(evals) == 0 {
		return 0
	}
	var sum, max float64
	for _, e := range evals {
		sum += e
		if e > max {
			max = e
		}
	}
	avg := sum / float64(len(evals))
	if avg == 0 {
		return 0
	}
	return (max - avg) / avg
}

// Fig13Point pairs imbalance with parallelization efficiency.
type Fig13Point struct {
	Design     string
	K          int
	Imbalance  float64
	Efficiency float64
}

// Fig13Efficiency reproduces Figure 13: efficiency degrades with load
// imbalance.
func (s *Suite) Fig13Efficiency(points []Perf) ([]Fig13Point, *report.Table) {
	var pts []Fig13Point
	t := report.NewTable("Figure 13: efficiency vs imbalance (RepCut)",
		"Design", "Threads", "Imbalance", "Efficiency")
	for _, p := range points {
		if p.Simulator != SimRepCut || p.K < 2 {
			continue
		}
		ib := imbalanceOf(p.ThreadEvalNs)
		eff := p.Speedup / float64(p.K)
		pts = append(pts, Fig13Point{p.Design, p.K, ib, eff})
		t.Row(p.Design, p.K, report.F2(ib), report.F2(eff))
	}
	return pts, t
}

// Fig14Point tracks imbalance through the tool flow.
type Fig14Point struct {
	Design   string
	K        int
	Excl     float64 // hypergraph partition, excluding replication
	Incl     float64 // realized partitions, including replication
	Measured float64 // modeled execution times
}

// Fig14Imbalance reproduces Figure 14: imbalance excluding replication,
// including replication, and as measured.
func (s *Suite) Fig14Imbalance() ([]Fig14Point, *report.Table) {
	var pts []Fig14Point
	t := report.NewTable("Figure 14: imbalance factor (Formula 4)",
		"Design", "Threads", "Excl repl", "Incl repl", "Measured")
	for _, cfg := range s.Designs {
		for _, k := range s.Threads {
			if k < 2 || k > s.CPU.CoresPerSocket {
				continue
			}
			res := s.Partition(cfg, k, false)
			p := s.RepCutPerf(cfg, k, false, 2, hostmodel.SameSocket)
			m := imbalanceOf(p.ThreadEvalNs)
			pts = append(pts, Fig14Point{cfg.Name(), k, res.ImbalanceExcl, res.ImbalanceIncl, m})
			t.Row(cfg.Name(), k, report.F2(res.ImbalanceExcl),
				report.F2(res.ImbalanceIncl), report.F2(m))
		}
	}
	return pts, t
}

// Table3Cycles is the nominal simulated-cycle count Table 3 rates are
// reported over.
const Table3Cycles = 1e6

// Table3 reproduces Table 3: performance-counter measurements for
// MegaBOOM-4C across thread counts and socket placements.
func (s *Suite) Table3() *report.Table {
	cfg := designs.Config{Kind: designs.MegaBoom, Cores: 4, Scale: s.Scale}
	type col struct {
		label string
		k     int
		pl    hostmodel.Placement
	}
	var cols []col
	for _, k := range []int{1, 4, 8, 16, 24} {
		cols = append(cols, col{fmt.Sprintf("%dT/1S", k), k, hostmodel.SameSocket})
	}
	for _, k := range []int{4, 8, 16, 24, 48} {
		cols = append(cols, col{fmt.Sprintf("%dT/2S", k), k, hostmodel.Interleaved})
	}
	headers := []string{"Perf event"}
	for _, c := range cols {
		headers = append(headers, c.label)
	}
	t := report.NewTable(fmt.Sprintf("Table 3: modeled counters, MegaBOOM-4C (per %g simulated cycles)", Table3Cycles), headers...)

	perfs := make([]Perf, len(cols))
	for i, c := range cols {
		perfs[i] = s.RepCutPerf(cfg, c.k, false, 2, c.pl)
	}
	base := perfs[0].Counters.Instructions

	row := func(name string, f func(Perf) string) {
		cells := []any{name}
		for _, p := range perfs {
			cells = append(cells, f(p))
		}
		t.Row(cells...)
	}
	n := Table3Cycles
	row("instructions", func(p Perf) string { return report.SI(p.Counters.Instructions * n) })
	row("L1-icache-load-misses", func(p Perf) string { return report.SI(p.Counters.L1IMisses * n) })
	row("l2_rqsts.code_rd_miss", func(p Perf) string { return report.SI(p.Counters.L2CodeRdMiss * n) })
	row("l2_rqsts.code_rd_hit", func(p Perf) string { return report.SI(p.Counters.L2CodeRdHit * n) })
	row("LLC-load-misses", func(p Perf) string { return report.SI(p.Counters.LLCLoadMisses * n) })
	row("L1-dcache-load-misses", func(p Perf) string { return report.SI(p.Counters.L1DMisses * n) })
	row("branches", func(p Perf) string { return report.SI(p.Counters.Branches * n) })
	row("branch-misses", func(p Perf) string { return report.SI(p.Counters.BranchMisses * n) })
	row("fetch-stall-cycles", func(p Perf) string { return report.SI(p.Counters.FetchStallCyc * n) })
	row("Wall Clock Time", func(p Perf) string {
		return fmt.Sprintf("%.2fs", p.Counters.WallNs*n/1e9)
	})
	row("CPU Time", func(p Perf) string {
		return fmt.Sprintf("%.2fs", p.Counters.CPUNs*n/1e9)
	})
	row("IPC", func(p Perf) string { return report.F2(p.Counters.IPC) })
	row("Branch Miss Rate", func(p Perf) string { return report.Pct(p.Counters.BranchMissRate) })
	row("Extra Instructions", func(p Perf) string {
		return report.Pct(p.Counters.Instructions/base - 1)
	})
	row("Replication Cost", func(p Perf) string { return report.Pct(p.Replication) })
	return t
}

// RealEquivalence runs the actual engines (serial and RepCut parallel) for
// a few hundred cycles and verifies they agree on every register — the
// honesty check behind every modeled number. The Verilator baseline is a
// schedule the host model replays, so no engine of its own takes part.
func (s *Suite) RealEquivalence(cfg designs.Config, k, cycles int) error {
	g := s.Graph(cfg)
	serial := sim.NewEngine(s.SerialProgram(cfg, 2))
	par := sim.NewEngine(s.Program(cfg, k, false, 2))
	serial.Run(cycles)
	par.Run(cycles)
	for i := range g.Regs {
		name := g.Regs[i].Name
		sv, err := serial.PeekReg(name)
		if err != nil {
			return err
		}
		pv, err := par.PeekReg(name)
		if err != nil {
			return err
		}
		if sv.Big().Cmp(pv.Big()) != 0 {
			return fmt.Errorf("%s k=%d: serial/parallel diverge on %s", cfg.Name(), k, name)
		}
	}
	return nil
}

// RealThroughput measures actual wall-clock simulation speed of the serial
// engine on the current host (not the modeled host) — reported alongside
// modeled numbers for transparency.
func (s *Suite) RealThroughput(cfg designs.Config, cycles int) float64 {
	e := sim.NewEngine(s.SerialProgram(cfg, 2))
	start := time.Now()
	e.Run(cycles)
	el := time.Since(start).Seconds()
	return float64(cycles) / el / 1000
}

// SortPerf orders points by (design, simulator, k) for stable output.
func SortPerf(points []Perf) {
	sort.Slice(points, func(a, b int) bool {
		pa, pb := points[a], points[b]
		if pa.Design != pb.Design {
			return pa.Design < pb.Design
		}
		if pa.Simulator != pb.Simulator {
			return pa.Simulator < pb.Simulator
		}
		return pa.K < pb.K
	})
}
