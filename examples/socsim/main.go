// socsim simulates a multi-core out-of-order SoC (the paper's benchmark
// workload) three ways — serial, RepCut parallel, and the Verilator-style
// baseline — verifies they agree cycle-for-cycle, and compares measured
// and modeled throughput.
//
//	go run ./examples/socsim
package main

import (
	"fmt"
	"log"
	"time"

	repcut "repro"
	"repro/internal/designs"
	"repro/internal/hostmodel"
	"repro/internal/verilator"
)

func main() {
	cfg := designs.Config{Kind: designs.SmallBoom, Cores: 2, Scale: 1}
	fmt.Printf("building %s ...\n", cfg.Name())
	circ := designs.BuildCircuit(cfg)
	d, err := repcut.Elaborate(circ)
	if err != nil {
		log.Fatal(err)
	}
	st := d.Stats()
	fmt.Printf("%s: %d IR nodes, %d sinks (%.1f%%)\n", cfg.Name(), st.IRNodes, st.SinkVtx, st.SinkPct)

	serial, err := d.CompileSerial(2)
	if err != nil {
		log.Fatal(err)
	}
	const threads = 4
	par, err := d.CompileParallel(repcut.Options{Threads: threads})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("RepCut %d-way: replication %.2f%%, imbalance %.3f\n",
		threads, 100*par.Report.ReplicationCost, par.Report.ImbalanceIncl)
	base, err := verilator.New(d.Graph, verilator.Options{Threads: threads})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Verilator baseline: %d MTasks on %d threads\n", len(base.Tasks), threads)

	const cycles = 2000
	run := func(name string, f func(int)) float64 {
		start := time.Now()
		f(cycles)
		el := time.Since(start)
		khz := float64(cycles) / el.Seconds() / 1000
		fmt.Printf("  %-10s %6d cycles in %8v  (%.1f KHz on this host)\n", name, cycles, el.Round(time.Millisecond), khz)
		return khz
	}
	fmt.Println("simulating:")
	run("serial", serial.Run)
	run("repcut", par.Run)
	run("verilator", func(n int) { base.Engine.Run(n) })

	// All three engines must agree on every register.
	mismatches := 0
	for i := range d.Graph.Regs {
		name := d.Graph.Regs[i].Name
		sv, _ := serial.PeekReg(name)
		pv, _ := par.PeekReg(name)
		if sv.Big().Cmp(pv.Big()) != 0 {
			mismatches++
		}
		if vv, err := base.Engine.PeekReg(name); err == nil && sv.Width <= 64 && sv.Uint64() != vv {
			mismatches++
		}
	}
	if mismatches > 0 {
		log.Fatalf("engines diverged on %d registers", mismatches)
	}
	fmt.Printf("all %d registers agree across the three engines after %d cycles\n",
		len(d.Graph.Regs), cycles)

	// What the same simulator would do on the paper's 48-core testbed.
	cpu := hostmodel.ScaledXeon8260()
	e1 := hostmodel.Evaluate(cpu, hostmodel.WorkFromProgram(serial.Program()), hostmodel.SameSocket)
	eN := hostmodel.Evaluate(cpu, hostmodel.WorkFromProgram(par.Program()), hostmodel.SameSocket)
	fmt.Printf("modeled on %s:\n  serial %.0f KHz, %d threads %.0f KHz (speedup %.2fx)\n",
		cpu.Name, e1.KHz, threads, eN.KHz, eN.KHz/e1.KHz)
}
