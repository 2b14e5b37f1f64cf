// Command benchall regenerates every table and figure of the paper's
// evaluation (Table 1, Table 3, Figures 2, 6, 7, 8, 9, 10, 11, 12, 13, 14)
// using this reproduction's designs, partitioner, simulators, and the
// simulated reference host. Results are printed and, with -out, written as
// both aligned text and CSV for plotting.
//
// Usage:
//
//	benchall              # quick suite (4 designs)
//	benchall -full        # all 12 Table 1 designs, full thread sweep
//	benchall -out results # also write results/<experiment>.{txt,csv}
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/designs"
	"repro/internal/experiments"
	"repro/internal/profiling"
	"repro/internal/report"
)

func main() {
	var (
		full    = flag.Bool("full", false, "run all 12 designs and the full thread sweep")
		outDir  = flag.String("out", "", "directory to write .txt/.csv results into")
		check   = flag.Bool("check", true, "run a real-engine equivalence spot check first")
		doVerif = flag.Bool("verify", true, "statically verify every compiled program (race freedom, replication closure, schedule)")
		workers = flag.Int("workers", 0, "worker count for partitioning+compilation (0 = all cores, 1 = serial; results are identical)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	s := experiments.NewQuick()
	if *full {
		s = experiments.New()
	}
	s.Workers = *workers

	write := func(name string, t *report.Table) {
		fmt.Println(t.String())
		if *outDir == "" {
			return
		}
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
		if err := os.WriteFile(filepath.Join(*outDir, name+".txt"), []byte(t.String()), 0o644); err != nil {
			fatal(err)
		}
		if err := os.WriteFile(filepath.Join(*outDir, name+".csv"), []byte(t.CSV()), 0o644); err != nil {
			fatal(err)
		}
	}

	if *check {
		step("real-engine equivalence spot check")
		cfg := designs.Config{Kind: designs.SmallBoom, Cores: 1, Scale: 1}
		if err := s.RealEquivalence(cfg, 4, 100); err != nil {
			fatal(err)
		}
		fmt.Printf("serial, RepCut(4 threads), and Verilator baseline agree over 100 cycles of %s\n", cfg.Name())
		fmt.Printf("real serial throughput on this host: %.1f KHz\n\n", s.RealThroughput(cfg, 2000))
	}

	if *doVerif {
		step("static soundness verification")
		tv, errs := s.VerifyAll()
		write("verify", tv)
		if errs > 0 {
			fatal(fmt.Errorf("static verification found %d error(s); results would not be trustworthy", errs))
		}
		fmt.Println("every compiled program proven race-free, partition-closed, and well-scheduled")
	}

	step("Table 1")
	write("table1", s.Table1())

	step("Figure 6 (replication cost)")
	_, t6 := s.Fig6Replication()
	write("fig6_replication", t6)

	step("Figures 7/8/9/13 (scalability sweep)")
	points := s.Scalability()
	experiments.SortPerf(points)
	write("fig7_speedup", s.Fig7Scalability(points))
	_, t8 := s.Fig8Peak(points)
	write("fig8_peak", t8)
	write("fig9_khz", s.Fig9Throughput(points))
	_, t13 := s.Fig13Efficiency(points)
	write("fig13_efficiency", t13)

	step("Figure 2 (thread profiles)")
	_, t2 := s.Fig2Profiles()
	write("fig2_profiles", t2)

	step("Figure 10 (compiler impact)")
	_, t10 := s.Fig10Compiler()
	write("fig10_compiler", t10)

	step("Figure 11 (socket placement)")
	_, t11 := s.Fig11Numa()
	write("fig11_numa", t11)

	step("Figure 12 (phase profiles)")
	_, t12 := s.Fig12PhaseProfile()
	write("fig12_phases", t12)

	step("Figure 14 (imbalance factor)")
	_, t14 := s.Fig14Imbalance()
	write("fig14_imbalance", t14)

	step("Table 3 (performance counters)")
	write("table3", s.Table3())
}

var t0 = time.Now()

func step(name string) {
	fmt.Printf("--- [%6.1fs] %s ---\n", time.Since(t0).Seconds(), name)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchall:", err)
	os.Exit(1)
}
