// Command repcut partitions and simulates one design: either a textual IR
// file or a named built-in benchmark design. It prints the partition
// report (replication cost, imbalance), runs the requested number of
// cycles on the real parallel engine, and reports both measured host
// throughput and modeled throughput on the paper's reference machine.
// It compiles through service.Compile, the door the repcutd cache compiles
// its misses through, so with -json it emits the exact report the service
// serves for the same request and the two cannot drift.
//
// Usage:
//
//	repcut -design MegaBOOM-4C -threads 8 -cycles 1000
//	repcut -file mydesign.fir -threads 4 -stats
//	repcut -design SmallBOOM-1C -threads 4 -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/hostmodel"
	"repro/internal/profiling"
	"repro/internal/report"
	"repro/internal/service"
	"repro/internal/sim"
)

// jsonOutput is the machine-readable result: the shared CLI/server
// DesignReport plus CLI-side measurements.
type jsonOutput struct {
	service.DesignReport
	CompileMs  float64           `json:"compile_ms"`
	ModeledKHz float64           `json:"modeled_khz"`
	Run        *jsonRun          `json:"run,omitempty"`
	Verified   bool              `json:"verified,omitempty"`
	Outputs    map[string]uint64 `json:"outputs,omitempty"`
}

// jsonRun records the measured simulation, when one was run. Backend is
// the engine the run actually executed on (it can differ from the
// requested -backend when the native kernel was unavailable); StateHash
// fingerprints the full architectural state after the last cycle, so two
// runs of any two backends are directly comparable.
type jsonRun struct {
	Cycles        int     `json:"cycles"`
	ElapsedSec    float64 `json:"elapsed_sec"`
	KHz           float64 `json:"khz"`
	InstrsRetired uint64  `json:"instrs_retired"`
	Backend       string  `json:"backend"`
	StateHash     string  `json:"state_hash"`
}

func main() {
	var (
		designName = flag.String("design", "", "built-in design, e.g. RocketChip-1C, SmallBOOM-2C, MegaBOOM-4C")
		file       = flag.String("file", "", "textual IR file to simulate")
		scale      = flag.Float64("scale", 1.0, "built-in design size scale")
		threads    = flag.Int("threads", 4, "partition/thread count")
		cycles     = flag.Int("cycles", 1000, "cycles to simulate")
		uw         = flag.Bool("uw", false, "disable the simulation cost model (RepCut UW)")
		seed       = flag.Int64("seed", 1, "partitioning seed")
		statsOnly  = flag.Bool("stats", false, "print design statistics and partition report, do not simulate")
		jsonOut    = flag.Bool("json", false, "emit the report as JSON (same encoding as the repcutd service)")
		vcdPath    = flag.String("vcd", "", "dump register/output waveforms to this VCD file")
		backendF   = flag.String("backend", "linked", "execution backend: linked (resolved instruction-stream executor), native (compiled plugin kernel; falls back to linked when unsupported)")
		artifacts  = flag.String("artifacts", "", "native artifact store directory (-backend native; empty = per-user default under the temp dir)")
		verifyFlag = flag.Bool("verify", false, "statically prove the compiled program race-free and partition-closed; fail on any violation")
		validate   = flag.Bool("validate", false, "translation validation: symbolically prove the optimized program equivalent to its O0 reference; fail on any divergence (implies -verify)")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	if (*designName == "") == (*file == "") {
		fatal(fmt.Errorf("specify exactly one of -design <name> or -file <path>"))
	}
	if *backendF != "linked" && *backendF != "native" {
		fatal(fmt.Errorf("unknown backend %q (want linked, native)", *backendF))
	}
	req := service.CompileRequest{Design: *designName, Scale: *scale, Threads: *threads,
		Seed: *seed, Unweighted: *uw, Verify: *verifyFlag, Validate: *validate}
	if *file != "" {
		src, err := os.ReadFile(*file)
		if err != nil {
			fatal(err)
		}
		req.Source = string(src)
	}
	start := time.Now()
	e, err := service.Compile(req)
	if err != nil {
		fatal(err)
	}
	if !*jsonOut {
		st := e.Stats
		fmt.Printf("%s: %d IR nodes, %d edges, %d sinks (%.2f%%), %d reg writes, %d merged vertices\n",
			e.Name, st.IRNodes, st.Edges, st.SinkVtx, st.SinkPct, st.RegWrites, st.Merged)
	}
	s := e.Compiled.NewSimulator()
	if *backendF == "native" {
		if err := s.UseNative(*artifacts); err != nil && !*jsonOut {
			fmt.Printf("native backend unavailable, running linked: %v\n", err)
		}
	}
	compileTime := time.Since(start)
	backend := "linked"
	if s.NativeInstalled() {
		backend = "native"
	}

	out := jsonOutput{
		DesignReport: e.Report(),
		CompileMs:    float64(compileTime.Microseconds()) / 1000,
		Verified:     s.Verification != nil,
	}

	if !*jsonOut {
		fmt.Printf("partitioned + compiled for %d threads in %v\n", s.Program().NumThreads, compileTime.Round(time.Millisecond))
		if s.Verification != nil {
			fmt.Println(s.Verification)
		}
		if v := out.Validation; v != nil {
			fmt.Printf("translation validated: %d pairs (%d proved, %d probed) in %.1f ms\n",
				v.Pairs, v.Proved, v.Probed, v.ElapsedMs)
		}
		if r := s.Report; r.Threads > 1 {
			fmt.Printf("replication cost: %s   imbalance (excl/incl): %.3f / %.3f   replicated vertices: %d\n",
				report.Pct(r.ReplicationCost), r.ImbalanceExcl, r.ImbalanceIncl, r.ReplicatedVertices)
			fmt.Printf("cut cost: %d   derep groups: %d (%d registers demoted to shared-read slots)\n",
				r.CutCost, r.DerepGroups, r.DerepRegs)
		}
	}

	// Modeled throughput on the paper's (scaled) reference host.
	cpu := hostmodel.ScaledXeon8260()
	ev := hostmodel.Evaluate(cpu, hostmodel.WorkFromProgram(s.Program()), hostmodel.SameSocket)
	out.ModeledKHz = ev.KHz
	if !*jsonOut {
		fmt.Printf("modeled on %s: %.1f KHz (cycle %.0f ns, IPC %.2f)\n",
			cpu.Name, ev.KHz, ev.CycleNs, ev.Counters.IPC)
	}

	if !*statsOnly {
		start = time.Now()
		if *vcdPath != "" {
			f, err := os.Create(*vcdPath)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			vw := sim.NewVCDWriter(f, s.Engine)
			if err := vw.RunSampled(*cycles); err != nil {
				fatal(err)
			}
			if !*jsonOut {
				fmt.Printf("wrote waveforms to %s\n", *vcdPath)
			}
		} else {
			s.Run(*cycles)
		}
		el := time.Since(start)
		out.Run = &jsonRun{
			Cycles:        *cycles,
			ElapsedSec:    el.Seconds(),
			KHz:           float64(*cycles) / el.Seconds() / 1000,
			InstrsRetired: s.InstrsRetired(),
			Backend:       backend,
			StateHash:     fmt.Sprintf("%016x", s.StateHash()),
		}
		out.Outputs = map[string]uint64{}
		for _, o := range s.Program().Outputs {
			if o.Width <= 64 {
				v, _ := s.PeekOutput(o.Name)
				out.Outputs[o.Name] = v
			}
		}
		if !*jsonOut {
			fmt.Printf("simulated %d cycles in %v (%.1f KHz on this host, %d instrs retired, %s backend)\n",
				*cycles, el.Round(time.Millisecond), out.Run.KHz, s.InstrsRetired(), backend)
			fmt.Printf("state hash: %s\n", out.Run.StateHash)
			for _, o := range s.Program().Outputs {
				if o.Width <= 64 {
					fmt.Printf("  output %s = %#x\n", o.Name, out.Outputs[o.Name])
				}
			}
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "repcut:", err)
	os.Exit(1)
}
