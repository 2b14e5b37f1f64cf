// Command bench is this repository's one benchmark: FIRRTL text in, simulated
// cycles out, through the real repcutd binary. See README.md for the
// workloads, the metrics and how a number is taken.
//
//	bash bench/run.sh                                  all workloads, end-to-end metrics
//	bash bench/run.sh -trace 1                         traced pass: per-layer metrics, span files
//	bash bench/run.sh -aa                              same code as two sides, held to the bounds
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//	                                                   one run; last stdout line is the JSON result
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	var (
		workloadF = flag.String("workload", "", "run one workload and print the JSON result line (default: all workloads, tables)")
		seed      = flag.Int64("seed", 1, "stimulus pokes, register sample and never-seen text are drawn from it")
		seconds   = flag.Int("seconds", 10, "scales the fixed work of a run; the timed window lasts about this long on the reference host")
		trace     = flag.Int("trace", 0, "1 = traced pass: per-layer metrics and bench/out/trace-<workload>.json")
		aa        = flag.Bool("aa", false, "measure the same code as two sides taking turns, and hold the pair to the bounds")
		ledger    = flag.String("ledger", "", "append one JSON line per (workload, metric) to this file")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-aa] [-ledger FILE]")
		os.Exit(2)
	}
	if err := run(*workloadF, *seed, *seconds, *trace == 1, *aa, *ledger); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// env is what one invocation sets up once.
type env struct {
	root   string // repository (or checkout) root
	r      *runner
	prov   provenance
	buildS float64 // go build ./cmd/repcutd
}

func run(workloadName string, seed int64, seconds int, traced, aa bool, ledger string) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	out := filepath.Join(root, ".bench_build")
	bin := filepath.Join(out, "bin", "repcutd")
	t := time.Now()
	build := exec.Command("go", "build", "-o", bin, "./cmd/repcutd")
	build.Dir = root
	if msg, err := build.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/repcutd: %v: %s", err, msg)
	}
	e := &env{
		root:   root,
		r:      &runner{repcutd: bin, scratch: filepath.Join(out, "run"), seed: seed, seconds: seconds},
		prov:   newProvenance(root, seed),
		buildS: time.Since(t).Seconds(),
	}
	switch {
	case aa:
		return e.aaMode(ledger)
	case workloadName != "":
		return e.single(workloadName, traced, ledger)
	default:
		return e.all(traced, ledger)
	}
}

// findRoot walks up from the working directory to the module "repro".
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module repro\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod of module repro in or above the working directory")
		}
		dir = parent
	}
}

// measured is one workload's metrics from one pass.
type measured struct {
	res     *runResult
	metrics map[string]float64
}

// untracedPass runs w with tracing off and returns its end-to-end metrics.
func (e *env) untracedPass(w workload) (*measured, error) {
	res, err := e.r.run(w, nil)
	if err != nil {
		return nil, err
	}
	if err := checkComplete(endToEnd, res.e2e); err != nil {
		return nil, err
	}
	return &measured{res: res, metrics: res.e2e}, nil
}

// tracedPass runs w with spans on for every other segment and returns the
// per-workload diagnostics.
func (e *env) tracedPass(w workload, tr *tracer) (*measured, error) {
	res, err := e.r.run(w, tr)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	m["workload.sim_cycles_per_s_median"] = median(res.segRates)
	pct, v := tail(res.stepMs)
	m["workload.step_tail_ms"], m["workload.step_tail_pct"] = v, pct
	m["workload.step_samples"] = float64(len(res.stepMs))
	un, tc := segmentRate(res.untracedRates), segmentRate(res.tracedRates)
	m["bench.trace_overhead_pct"] = 100 * (un - tc) / un
	m["bench.build_repcutd_s"] = e.buildS
	m["bench.loadgen_cpu_share"] = res.loadgenCPU / (res.loadgenCPU + res.serverCPU)
	return &measured{res: res, metrics: m}, nil
}

// writeTrace dumps tr's spans to bench/out/trace-<name>.json.
func (e *env) writeTrace(tr *tracer, name string) error {
	return tr.write(filepath.Join(e.root, "bench", "out", "trace-"+name+".json"), name, e.prov)
}

// single is the mode the benchmark contract drives: one workload, one pass,
// and as the last line of standard output the JSON result.
func (e *env) single(name string, traced bool, ledger string) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	var (
		m    *measured
		defs []metricDef
		err  error
	)
	if traced {
		tr := newTracer()
		var layer *probes
		if layer, err = e.r.runLayerProbes(tr); err != nil {
			return err
		}
		if m, err = e.tracedPass(w, tr); err != nil {
			return err
		}
		for k, v := range layer.m {
			m.metrics[k] = v
		}
		if err := e.writeTrace(tr, w.name); err != nil {
			return err
		}
		defs = perLayer
	} else {
		if m, err = e.untracedPass(w); err != nil {
			return err
		}
		defs = endToEnd
	}
	if err := checkComplete(defs, m.metrics); err != nil {
		return err
	}
	printTable(os.Stderr, w.name, defs, m.metrics)
	fmt.Fprintf(os.Stderr, "%s: state_hash oracle=%s final=%s attempted=%d failed=%d\n",
		w.name, m.res.oracleHash, m.res.finalHash, m.res.attempted, m.res.failed)
	if err := appendLedger(ledger, e.prov, e.r.seconds, w, defs, m.metrics); err != nil {
		return err
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: m.res.failed == 0, Attempted: m.res.attempted, Failed: m.res.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		line.Metrics[d.Name] = value{m.metrics[d.Name], d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if m.res.failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", w.name, m.res.failed, m.res.attempted)
	}
	return nil
}

// set is one pass over every workload.
type set struct {
	byWorkload map[string]*measured
	layer      *probes // traced sets only
}

// runSet runs every workload in the given order. A traced set also runs the
// layer probes, once, and writes one span file per workload plus
// trace-layers.json for the probes.
func (e *env) runSet(order []workload, traced bool) (*set, error) {
	s := &set{byWorkload: map[string]*measured{}}
	if traced {
		tr := newTracer()
		var err error
		if s.layer, err = e.r.runLayerProbes(tr); err != nil {
			return nil, err
		}
		if err := e.writeTrace(tr, "layers"); err != nil {
			return nil, err
		}
	}
	for _, w := range order {
		fmt.Fprintf(os.Stderr, "running %s ...\n", w.name)
		var (
			m   *measured
			err error
		)
		if traced {
			tr := newTracer()
			if m, err = e.tracedPass(w, tr); err != nil {
				return nil, err
			}
			if err := e.writeTrace(tr, w.name); err != nil {
				return nil, err
			}
		} else if m, err = e.untracedPass(w); err != nil {
			return nil, err
		}
		s.byWorkload[w.name] = m
	}
	return s, nil
}

// all prints every metric of every workload by name and unit.
func (e *env) all(traced bool, ledger string) error {
	s, err := e.runSet(workloads, traced)
	if err != nil {
		return err
	}
	fmt.Println(e.prov.line())
	var failed int64
	for _, w := range workloads {
		m := s.byWorkload[w.name]
		defs := endToEnd
		if traced {
			defs = workloadMetrics
		}
		printTable(os.Stdout, w.name, defs, m.metrics)
		fmt.Printf("%-22s %-36s oracle=%s final=%s attempted=%d failed=%d\n",
			w.name, "state_hash", m.res.oracleHash, m.res.finalHash, m.res.attempted, m.res.failed)
		failed += m.res.failed
		if err := appendLedger(ledger, e.prov, e.r.seconds, w, defs, m.metrics); err != nil {
			return err
		}
	}
	if traced {
		printTable(os.Stdout, "layers", layerMetrics, s.layer.m)
		if err := appendLedger(ledger, e.prov, e.r.seconds, workload{name: "layers"}, layerMetrics, s.layer.m); err != nil {
			return err
		}
		fmt.Printf("span files: %s\n", filepath.Join("bench", "out", "trace-<workload>.json"))
	}
	if err := sameRocketHash(s); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

// sameRocketHash checks that the three executors that ran the same text,
// pokes and cycles ended in the same architectural state.
func sameRocketHash(s *set) error {
	names := []string{"run-rocket-1t", "run-rocket-2t", "run-rocket-native-1t"}
	first := s.byWorkload[names[0]].res.finalHash
	for _, n := range names[1:] {
		if h := s.byWorkload[n].res.finalHash; h != first {
			return fmt.Errorf("state_hash differs: %s ended in %s, %s in %s", names[0], first, n, h)
		}
	}
	return nil
}

func printTable(f *os.File, workload string, defs []metricDef, m map[string]float64) {
	for _, d := range defs {
		fmt.Fprintf(f, "%-22s %-36s %14.6g %s\n", workload, d.Name, m[d.Name], d.Unit)
	}
}
