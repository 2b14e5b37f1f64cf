// Command repcutfuzz drives the differential fuzzing harness outside the
// `go test -fuzz` loop: it generates seeded random circuits, runs each
// one through the full cross-engine oracle (tree-walking reference, serial
// O0/O2, parallel and repartitioned partitions, lane-batched engine,
// checkpoint/restore, compile-cache round-trip, static verifier,
// translation validator), and on any disagreement greedily shrinks the
// circuit and writes a replayable crasher to disk.
//
// Unlike native fuzzing this is fully deterministic — seed k always
// produces the same circuit and stimulus — so it doubles as a long-form
// regression sweep in CI.
//
// Usage:
//
//	repcutfuzz -seeds 200                # sweep seeds 1..200
//	repcutfuzz -budget 30s -size 80      # sweep until the time budget expires
//	repcutfuzz -seeds 50 -shrink=false   # report crashers unminimized
//
// Exit status is 1 when any seed produced a mismatch, 0 on a clean sweep.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/difftest"
	"repro/internal/genckt"
)

// crasherMeta is the sidecar written next to each minimized .fir so a
// failure is replayable without re-running the sweep.
type crasherMeta struct {
	Seed       int64  `json:"seed"`
	Size       int    `json:"size"`
	Cycles     int    `json:"cycles"`
	Engine     string `json:"engine"`
	Mismatch   string `json:"mismatch"`
	Shrunk     bool   `json:"shrunk"`
	Vertices   string `json:"vertices"`
	ShrinkInfo string `json:"shrink_info,omitempty"`
}

func main() {
	var (
		seeds    = flag.Int("seeds", 200, "number of generator seeds to sweep (1..N)")
		budget   = flag.Duration("budget", 30*time.Second, "wall-clock budget; 0 disables")
		shrink   = flag.Bool("shrink", true, "minimize failing circuits before writing them")
		outDir   = flag.String("out", "internal/difftest/testdata/crashers", "directory for crasher .fir + .json files")
		size     = flag.Int("size", 60, "target combinational node count per circuit")
		cycles   = flag.Int("cycles", 20, "cycles to simulate per circuit")
		seed0    = flag.Int64("seed-base", 0, "offset added to every seed (vary the sweep)")
		validate = flag.Bool("validate", true, "run the translation validator on every circuit and cross-check its verdict against the oracle")
		cgen     = flag.Bool("codegen", false, "add the native-codegen engine column (plugin build per circuit; skipped on platforms without plugin support)")
		verbose  = flag.Bool("v", false, "log every seed, not just failures")
	)
	flag.Parse()

	start := time.Now()
	deadline := time.Time{}
	if *budget > 0 {
		deadline = start.Add(*budget)
	}

	crashers := 0
	ran := 0
	for i := 1; i <= *seeds; i++ {
		if !deadline.IsZero() && time.Now().After(deadline) {
			fmt.Printf("budget %v exhausted after %d/%d seeds\n", *budget, ran, *seeds)
			break
		}
		seed := *seed0 + int64(i)
		spec := genckt.Generate(genckt.Config{Seed: seed, Size: *size})
		d, err := spec.Build()
		if err != nil {
			// The generator must always emit buildable circuits; a build
			// failure is itself a bug worth reporting.
			fmt.Fprintf(os.Stderr, "seed %d: generator emitted unbuildable circuit: %v\n", seed, err)
			crashers++
			continue
		}
		ran++
		opt := difftest.Default(seed)
		opt.Cycles = *cycles
		opt.Validate = *validate
		opt.Codegen = *cgen
		m := difftest.Run(d, opt)
		if m == nil {
			if *verbose {
				fmt.Printf("seed %d: ok (%s)\n", seed, spec.Counts())
			}
			continue
		}
		crashers++
		fmt.Printf("seed %d: MISMATCH %v\n", seed, m)
		meta := crasherMeta{
			Seed: seed, Size: *size, Cycles: opt.Cycles,
			Engine: m.Engine, Mismatch: m.Error(), Vertices: spec.Counts(),
		}
		final := d
		if *shrink {
			if res := difftest.Shrink(spec, opt.Cycles, difftest.FailsOracle(opt)); res != nil {
				final, meta.Shrunk = res.Design, true
				meta.Cycles = res.Cycles
				meta.Vertices = res.Spec.Counts()
				meta.ShrinkInfo = fmt.Sprintf("%d steps, %d evals", res.Steps, res.Evals)
				fmt.Printf("seed %d: shrunk to %s in %d cycles (%s)\n",
					seed, meta.Vertices, res.Cycles, meta.ShrinkInfo)
			}
		}
		if err := writeCrasher(*outDir, seed, final, meta); err != nil {
			fmt.Fprintf(os.Stderr, "seed %d: writing crasher: %v\n", seed, err)
		}
	}

	fmt.Printf("%d seeds in %v: %d crasher(s)\n", ran, time.Since(start).Round(time.Millisecond), crashers)
	if crashers > 0 {
		os.Exit(1)
	}
}

// writeCrasher drops seed-<n>.fir (replayed by TestDifferentialCorpus)
// and seed-<n>.json (human/CI context) into dir.
func writeCrasher(dir string, seed int64, d *genckt.Design, meta crasherMeta) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("seed-%d", seed))
	header := fmt.Sprintf("; Found by repcutfuzz seed %d (engine %s).\n; %s\n",
		seed, meta.Engine, meta.Mismatch)
	if err := os.WriteFile(base+".fir", []byte(header+d.Text), 0o644); err != nil {
		return err
	}
	js, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+".json", append(js, '\n'), 0o644)
}
