package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// provenance says who measured a number. A checkout that is not a git
// repository reports commit "unknown".
type provenance struct {
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
	Go         string `json:"go"`
	Platform   string `json:"goos/goarch"`
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Host       string `json:"host"`
	Date       string `json:"date"`
	Seed       int64  `json:"seed"`
}

func newProvenance(root string, seed int64) provenance {
	p := provenance{
		Commit: "unknown", Go: runtime.Version(), Platform: runtime.GOOS + "/" + runtime.GOARCH,
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Date: time.Now().UTC().Format(time.RFC3339), Seed: seed,
	}
	p.Host, _ = os.Hostname() // an unnamed host is not worth failing over
	git := func(args ...string) (string, error) {
		out, err := exec.Command("git", append([]string{"-C", root}, args...)...).Output()
		return strings.TrimSpace(string(out)), err
	}
	if commit, err := git("rev-parse", "HEAD"); err == nil {
		p.Commit = commit
		status, err := git("status", "--porcelain")
		p.Dirty = err != nil || status != ""
	}
	return p
}

func (p provenance) line() string {
	return fmt.Sprintf("# commit=%s dirty=%t %s %s nproc=%d gomaxprocs=%d host=%s date=%s seed=%d",
		p.Commit, p.Dirty, p.Go, p.Platform, p.NProc, p.GoMaxProcs, p.Host, p.Date, p.Seed)
}

// ledgerRecord is ROADMAP item 1's record shape: one line per
// (workload, metric).
type ledgerRecord struct {
	Suite      string         `json:"suite"`
	Design     string         `json:"design"`
	Config     map[string]any `json:"config"`
	Metric     string         `json:"metric"`
	Value      float64        `json:"value"`
	Unit       string         `json:"unit"`
	Provenance provenance     `json:"provenance"`
}

// appendLedger appends one record per metric to path (no-op for "").
func appendLedger(path string, prov provenance, seconds int, w workload, defs []metricDef, m map[string]float64) (err error) {
	if path == "" {
		return nil
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	enc := json.NewEncoder(f)
	for _, d := range defs {
		rec := ledgerRecord{
			Suite: "bench", Design: w.cfg.Name(), Metric: d.Name, Value: m[d.Name], Unit: d.Unit, Provenance: prov,
			Config: map[string]any{"workload": w.name, "threads": w.threads, "native": w.native, "seconds": seconds},
		}
		if w.threads == 0 { // the layer probes span several designs
			rec.Design, rec.Config = "", map[string]any{"workload": w.name}
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// worse is by what share of a, b is worse than a.
func worse(d metricDef, a, b float64) float64 {
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// aaRuns is how many runs of every workload each side of the A/A takes; a
// side's value is the median of its runs, as in a comparison of two commits.
const aaRuns = 3

// aaMode measures the same code as if it were two commits: sides A and B
// take turns running the full set (A in workload order, B in reverse), aaRuns
// times each, and the pair of medians is held to the rules a later comparison
// is held to: every end-to-end metric of every workload within its bound in
// both directions, no failed operation, every exact count and every state
// hash identical. It prints the table committed as AA.md.
func (e *env) aaMode(ledger string) error {
	reversed := make([]workload, len(workloads))
	for i, w := range workloads {
		reversed[len(workloads)-1-i] = w
	}
	vals := map[string]*[2][]float64{} // "workload metric" -> runs per side
	hashes := map[string]string{}      // workload -> "oracle final" of its first run
	var layers [2]*probes
	var breaches []string
	for rep := 0; rep < aaRuns; rep++ {
		for side, order := range [][]workload{workloads, reversed} {
			s, err := e.runSet(order, false)
			if err != nil {
				return err
			}
			if err := sameRocketHash(s); err != nil {
				return err
			}
			for _, w := range workloads {
				m := s.byWorkload[w.name]
				for _, d := range endToEnd {
					key := w.name + " " + d.Name
					if vals[key] == nil {
						vals[key] = &[2][]float64{}
					}
					vals[key][side] = append(vals[key][side], m.metrics[d.Name])
				}
				h := m.res.oracleHash + " " + m.res.finalHash
				if first, ok := hashes[w.name]; !ok {
					hashes[w.name] = h
				} else if h != first {
					breaches = append(breaches, fmt.Sprintf("%s state_hash %s, then %s", w.name, first, h))
				}
				if m.res.failed > 0 {
					breaches = append(breaches, fmt.Sprintf("%s: %d failed operations", w.name, m.res.failed))
				}
			}
		}
	}
	for side := range layers {
		var err error
		if layers[side], err = e.r.runLayerProbes(nil); err != nil {
			return err
		}
	}

	fmt.Println("# A/A: two sets of runs of the same code")
	fmt.Println()
	fmt.Println("`" + e.prov.line()[2:] + "`")
	fmt.Println()
	fmt.Printf("Sides A and B take turns running all workloads (A in order, B in reverse), %d runs each, `--seconds %d`; a value is the median of a side's runs. diff = how much worse the worse side is, as a share of the other.\n\n", aaRuns, e.r.seconds)
	fmt.Println("| workload | metric | unit | A | B | diff | bound | |")
	fmt.Println("|---|---|---|---:|---:|---:|---:|---|")
	for _, w := range workloads {
		a := map[string]float64{}
		for _, d := range endToEnd {
			v := vals[w.name+" "+d.Name]
			va, vb := median(v[0]), median(v[1])
			a[d.Name] = va
			diff := math.Max(worse(d, va, vb), worse(d, vb, va))
			verdict := "ok"
			if diff > d.Bound {
				verdict = "BREACH"
				breaches = append(breaches, w.name+" "+d.Name)
			}
			fmt.Printf("| %s | %s | %s | %.6g | %.6g | %.1f%% | %.0f%% | %s |\n",
				w.name, d.Name, d.Unit, va, vb, 100*diff, 100*d.Bound, verdict)
		}
		if err := appendLedger(ledger, e.prov, e.r.seconds, w, endToEnd, a); err != nil {
			return err
		}
	}

	fmt.Print("\n## State hashes (identical in all runs of both sides)\n\n")
	fmt.Println("| workload | oracle | final |")
	fmt.Println("|---|---|---|")
	for _, w := range workloads {
		oracle, final, _ := strings.Cut(hashes[w.name], " ")
		fmt.Printf("| %s | %s | %s |\n", w.name, oracle, final)
	}

	fmt.Print("\n## Per-layer metrics (no bound; exact ones must repeat)\n\n")
	fmt.Println("| metric | unit | A | B | |")
	fmt.Println("|---|---|---:|---:|---|")
	for _, d := range layerMetrics {
		va, vb := layers[0].m[d.Name], layers[1].m[d.Name]
		note := ""
		if layers[0].exact[d.Name] {
			note = "exact"
			if va != vb {
				note = "BREACH"
				breaches = append(breaches, d.Name)
			}
		}
		fmt.Printf("| %s | %s | %.6g | %.6g | %s |\n", d.Name, d.Unit, va, vb, note)
	}
	if err := appendLedger(ledger, e.prov, e.r.seconds, workload{name: "layers"}, layerMetrics, layers[0].m); err != nil {
		return err
	}
	if len(breaches) > 0 {
		fmt.Printf("\n**%d breaches**: %s\n", len(breaches), strings.Join(breaches, "; "))
		return fmt.Errorf("A/A: %d breaches", len(breaches))
	}
	fmt.Println("\nNo breach.")
	return nil
}
