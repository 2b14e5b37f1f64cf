package repcut

// Benchmark harness: one target per table and figure of the paper's
// evaluation. Each Benchmark* regenerates its experiment's rows (printed
// with -v via b.Log) and reports the headline metric through
// b.ReportMetric, so `go test -bench=. -benchmem` both exercises the code
// under the Go benchmark framework and reproduces the paper's series.
// cmd/benchall renders the same data as full tables/CSV.
//
// The quick suite (one design per family) is shared across benchmarks and
// memoizes design builds, partitions, and compiled programs, so individual
// targets stay fast after the first.

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/designs"
	"repro/internal/experiments"
	"repro/internal/hostmodel"
	"repro/internal/sim"
)

var (
	suiteOnce sync.Once
	suite     *experiments.Suite
)

func benchSuite() *experiments.Suite {
	suiteOnce.Do(func() { suite = experiments.NewQuick() })
	return suite
}

// BenchmarkTable1Stats regenerates Table 1 (design statistics).
func BenchmarkTable1Stats(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		tbl := s.Table1()
		if i == 0 {
			b.Log("\n" + tbl.String())
		}
	}
	mega := s.Graph(designs.Config{Kind: designs.MegaBoom, Cores: 4, Scale: 1}).Stats()
	b.ReportMetric(float64(mega.IRNodes), "meganodes")
	b.ReportMetric(mega.SinkPct, "megasink%")
}

// BenchmarkFig2Profiles regenerates Figure 2 (thread activity profiles).
func BenchmarkFig2Profiles(b *testing.B) {
	s := benchSuite()
	var util float64
	for i := 0; i < b.N; i++ {
		rows, tbl := s.Fig2Profiles()
		if i == 0 {
			b.Log("\n" + tbl.String())
		}
		for _, r := range rows {
			if r.Design == "MegaBOOM-4C" && r.Simulator == experiments.SimRepCut {
				util = r.Utilization
			}
		}
	}
	b.ReportMetric(100*util, "repcut_util%")
}

// BenchmarkFig6Replication regenerates Figure 6 (replication cost).
func BenchmarkFig6Replication(b *testing.B) {
	s := benchSuite()
	var mega24 float64
	for i := 0; i < b.N; i++ {
		pts, tbl := s.Fig6Replication()
		if i == 0 {
			b.Log("\n" + tbl.String())
		}
		for _, p := range pts {
			if p.Design == "MegaBOOM-4C" && p.K == 24 {
				mega24 = p.Replication
			}
		}
	}
	b.ReportMetric(100*mega24, "mega4c_rep%@24")
}

// BenchmarkFig7Scalability regenerates Figure 7 (self-relative speedups).
func BenchmarkFig7Scalability(b *testing.B) {
	s := benchSuite()
	var rc, vl float64
	for i := 0; i < b.N; i++ {
		pts := s.Scalability()
		if i == 0 {
			b.Log("\n" + s.Fig7Scalability(pts).String())
		}
		for _, p := range pts {
			if p.Design == "MegaBOOM-4C" && p.K == 24 {
				switch p.Simulator {
				case experiments.SimRepCut:
					rc = p.Speedup
				case experiments.SimVerilator:
					vl = p.Speedup
				}
			}
		}
	}
	b.ReportMetric(rc, "repcut_x@24")
	b.ReportMetric(vl, "verilator_x@24")
}

// BenchmarkFig8PeakSpeedup regenerates Figure 8 (peak speedup vs size).
func BenchmarkFig8PeakSpeedup(b *testing.B) {
	s := benchSuite()
	var mega float64
	for i := 0; i < b.N; i++ {
		pts := s.Scalability()
		peak, tbl := s.Fig8Peak(pts)
		if i == 0 {
			b.Log("\n" + tbl.String())
		}
		mega = peak["MegaBOOM-4C"][experiments.SimRepCut]
	}
	b.ReportMetric(mega, "mega4c_peak_x")
}

// BenchmarkFig9Throughput regenerates Figure 9 (absolute KHz).
func BenchmarkFig9Throughput(b *testing.B) {
	s := benchSuite()
	var best float64
	for i := 0; i < b.N; i++ {
		pts := s.Scalability()
		if i == 0 {
			b.Log("\n" + s.Fig9Throughput(pts).String())
		}
		best = 0
		for _, p := range pts {
			if p.Design == "MegaBOOM-4C" && p.Simulator == experiments.SimRepCut && p.KHz > best {
				best = p.KHz
			}
		}
	}
	b.ReportMetric(best, "mega4c_best_kHz")
}

// BenchmarkFig10Compiler regenerates Figure 10 (backend optimization
// impact — the clang 10 vs clang 14 analog).
func BenchmarkFig10Compiler(b *testing.B) {
	s := benchSuite()
	var o0, o2 float64
	for i := 0; i < b.N; i++ {
		pts, tbl := s.Fig10Compiler()
		if i == 0 {
			b.Log("\n" + tbl.String())
		}
		for _, p := range pts {
			if p.Design == "MegaBOOM-4C" && p.Simulator == experiments.SimRepCut && p.K == 24 {
				if p.OptLevel == 0 {
					o0 = p.KHz
				} else {
					o2 = p.KHz
				}
			}
		}
	}
	if o0 > 0 {
		b.ReportMetric(o2/o0, "O2_over_O0")
	}
}

// BenchmarkFig11Numa regenerates Figure 11 (socket placement).
func BenchmarkFig11Numa(b *testing.B) {
	s := benchSuite()
	var same, inter float64
	for i := 0; i < b.N; i++ {
		pts, tbl := s.Fig11Numa()
		if i == 0 {
			b.Log("\n" + tbl.String())
		}
		for _, p := range pts {
			if p.Design == "MegaBOOM-4C" && p.K == 24 {
				if p.Placement == hostmodel.Interleaved {
					inter = p.Speedup
				} else {
					same = p.Speedup
				}
			}
		}
	}
	b.ReportMetric(same, "same_socket_x@24")
	b.ReportMetric(inter, "interleaved_x@24")
}

// BenchmarkFig12PhaseProfile regenerates Figure 12 (per-thread phases).
func BenchmarkFig12PhaseProfile(b *testing.B) {
	s := benchSuite()
	var megaFrac float64
	for i := 0; i < b.N; i++ {
		rows, tbl := s.Fig12PhaseProfile()
		if i == 0 {
			b.Log("\n" + tbl.String())
		}
		var f float64
		var n int
		for _, r := range rows {
			if r.Design == "MegaBOOM-4C" {
				f += r.EvalNs / (r.EvalNs + r.WaitNs)
				n++
			}
		}
		megaFrac = f / float64(n)
	}
	b.ReportMetric(100*megaFrac, "mega4c_eval%")
}

// BenchmarkFig13Efficiency regenerates Figure 13 (efficiency vs imbalance).
func BenchmarkFig13Efficiency(b *testing.B) {
	s := benchSuite()
	var n int
	for i := 0; i < b.N; i++ {
		pts := s.Scalability()
		fpts, tbl := s.Fig13Efficiency(pts)
		if i == 0 {
			b.Log("\n" + tbl.String())
		}
		n = len(fpts)
	}
	b.ReportMetric(float64(n), "points")
}

// BenchmarkFig14Imbalance regenerates Figure 14 (imbalance factors).
func BenchmarkFig14Imbalance(b *testing.B) {
	s := benchSuite()
	var worst float64
	for i := 0; i < b.N; i++ {
		pts, tbl := s.Fig14Imbalance()
		if i == 0 {
			b.Log("\n" + tbl.String())
		}
		worst = 0
		for _, p := range pts {
			if p.Incl > worst {
				worst = p.Incl
			}
		}
	}
	b.ReportMetric(worst, "worst_imbalance")
}

// BenchmarkTable3Counters regenerates Table 3 (modeled perf counters).
func BenchmarkTable3Counters(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		tbl := s.Table3()
		if i == 0 {
			b.Log("\n" + tbl.String())
		}
	}
	cfg := designs.Config{Kind: designs.MegaBoom, Cores: 4, Scale: 1}
	p1 := s.RepCutPerf(cfg, 1, false, 2, hostmodel.SameSocket)
	p24 := s.RepCutPerf(cfg, 24, false, 2, hostmodel.SameSocket)
	b.ReportMetric(p1.Counters.IPC, "IPC@1")
	b.ReportMetric(p24.Counters.IPC, "IPC@24")
}

// --- Real-engine microbenchmarks (measured on this host, not modeled) ---

// BenchmarkSerialEngine measures actual serial simulation throughput.
func BenchmarkSerialEngine(b *testing.B) {
	s := benchSuite()
	cfg := designs.Config{Kind: designs.SmallBoom, Cores: 1, Scale: 1}
	e := sim.NewEngine(s.SerialProgram(cfg, 2))
	b.ResetTimer()
	e.Run(b.N)
	b.ReportMetric(float64(e.InstrsRetired())/float64(b.N), "instrs/cycle")
}

// BenchmarkParallelEngine measures the real two-phase parallel engine
// (barriers and all) on this host.
func BenchmarkParallelEngine(b *testing.B) {
	s := benchSuite()
	cfg := designs.Config{Kind: designs.SmallBoom, Cores: 1, Scale: 1}
	e := sim.NewEngine(s.Program(cfg, 4, false, 2))
	b.ResetTimer()
	e.Run(b.N)
}

// BenchmarkPartitionMegaBoom measures the full replication-aided
// partitioning pipeline (cones, clustering, hypergraph, realization).
func BenchmarkPartitionMegaBoom(b *testing.B) {
	s := benchSuite()
	g := s.Graph(designs.Config{Kind: designs.MegaBoom, Cores: 4, Scale: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Fresh seeds defeat memoization: this measures the partitioner.
		r, err := partitionForBench(g, 16, int64(i+100))
		if err != nil {
			b.Fatal(err)
		}
		_ = r
	}
}

// BenchmarkCompileMegaBoom measures serial compilation of the largest
// design.
func BenchmarkCompileMegaBoom(b *testing.B) {
	s := benchSuite()
	g := s.Graph(designs.Config{Kind: designs.MegaBoom, Cores: 4, Scale: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Compile(g, sim.SerialSpec(g), sim.Config{OptLevel: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPartitionCompile measures the end-to-end partition+compile
// pipeline serially (GOMAXPROCS=1) and with the worker pool at the default
// GOMAXPROCS. Both arms produce bit-identical programs; the parallel arm
// only helps on multi-core hosts.
func BenchmarkPartitionCompile(b *testing.B) {
	s := benchSuite()
	g := s.Graph(designs.Config{Kind: designs.MegaBoom, Cores: 4, Scale: 1})
	def := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(def)
	for _, bc := range []struct {
		name  string
		procs int
	}{
		{"serial", 1},
		{"parallel", def},
	} {
		b.Run(bc.name, func(b *testing.B) {
			runtime.GOMAXPROCS(bc.procs)
			for i := 0; i < b.N; i++ {
				// Fresh seeds defeat suite memoization.
				r, err := partitionForBench(g, 16, int64(i+500))
				if err != nil {
					b.Fatal(err)
				}
				specs := make([]sim.PartSpec, len(r.Parts))
				for p := range r.Parts {
					specs[p] = sim.PartSpec{Vertices: r.Parts[p].Vertices, Sinks: r.Parts[p].Sinks}
				}
				if _, err := sim.Compile(g, specs, sim.Config{OptLevel: 2}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
