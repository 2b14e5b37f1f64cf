package experiments

import (
	"strings"
	"testing"

	"repro/internal/designs"
	"repro/internal/hostmodel"
)

// The quick suite exercises every experiment end-to-end and asserts the
// paper's qualitative claims (the "shapes").

func quickSuite() *Suite {
	s := NewQuick()
	return s
}

func TestTable1Renders(t *testing.T) {
	s := quickSuite()
	tbl := s.Table1()
	out := tbl.String()
	if !strings.Contains(out, "MegaBOOM-4C") || !strings.Contains(out, "Sink (%)") {
		t.Fatalf("table 1 malformed:\n%s", out)
	}
}

func TestFig6ReplicationShape(t *testing.T) {
	s := quickSuite()
	pts, _ := s.Fig6Replication()
	// Replication grows with k per design and stays below 25% at k<=24.
	last := map[string]float64{}
	grew := map[string]bool{}
	for _, p := range pts {
		if p.Replication > 0.25 && p.K <= 24 {
			t.Errorf("%s k=%d: replication %.1f%% exceeds the paper's 25%% envelope",
				p.Design, p.K, 100*p.Replication)
		}
		if p.Replication > last[p.Design] {
			grew[p.Design] = true
		}
		last[p.Design] = p.Replication
	}
	if !grew["MegaBOOM-4C"] {
		t.Errorf("replication cost never grew with k for MegaBOOM-4C")
	}
	// Larger design needs less replication at the top thread count.
	repAt := func(design string, k int) float64 {
		for _, p := range pts {
			if p.Design == design && p.K == k {
				return p.Replication
			}
		}
		t.Fatalf("missing point %s/%d", design, k)
		return 0
	}
	if repAt("MegaBOOM-4C", 24) >= repAt("RocketChip-1C", 24) {
		t.Errorf("MegaBOOM-4C should need less replication than RocketChip-1C at 24 threads")
	}
}

func TestScalabilityShapes(t *testing.T) {
	s := quickSuite()
	pts := s.Scalability()
	get := func(design, simName string, k int) Perf {
		for _, p := range pts {
			if p.Design == design && p.Simulator == simName && p.K == k {
				return p
			}
		}
		t.Fatalf("missing %s/%s/k=%d", design, simName, k)
		return Perf{}
	}

	// (Fig 7) RepCut scales much better than Verilator on the big design.
	rc := get("MegaBOOM-4C", SimRepCut, 24)
	vl := get("MegaBOOM-4C", SimVerilator, 24)
	if rc.Speedup < vl.Speedup*1.5 {
		t.Errorf("RepCut (%.1fx) should clearly beat Verilator (%.1fx) at 24 threads", rc.Speedup, vl.Speedup)
	}
	// (headline) superlinearity on a large design at some thread count.
	super := false
	for _, p := range pts {
		if p.Simulator == SimRepCut && p.Speedup > float64(p.K) {
			super = true
		}
	}
	if !super {
		t.Errorf("no superlinear point found for RepCut")
	}
	// (Fig 8) peak speedup grows with design size for RepCut.
	peak, _ := s.Fig8Peak(pts)
	if peak["MegaBOOM-4C"][SimRepCut] <= peak["RocketChip-1C"][SimRepCut] {
		t.Errorf("peak speedup should grow with design size: mega=%.1f rocket=%.1f",
			peak["MegaBOOM-4C"][SimRepCut], peak["RocketChip-1C"][SimRepCut])
	}
	// (Fig 9) RepCut at its best thread count is the fastest simulator.
	for _, cfg := range s.Designs {
		best := map[string]float64{}
		for _, p := range pts {
			if p.Design == cfg.Name() && p.KHz > best[p.Simulator] {
				best[p.Simulator] = p.KHz
			}
		}
		if best[SimRepCut] <= best[SimVerilator] {
			t.Errorf("%s: RepCut best (%.0f KHz) should beat Verilator best (%.0f KHz)",
				cfg.Name(), best[SimRepCut], best[SimVerilator])
		}
	}
	// (Fig 7) the cost model helps: RepCut ≥ RepCut UW at high k for the
	// big design.
	uw := get("MegaBOOM-4C", SimRepCutUW, 24)
	if rc.KHz < uw.KHz*0.95 {
		t.Errorf("weighted RepCut (%.0f) should not lose clearly to UW (%.0f)", rc.KHz, uw.KHz)
	}
}

func TestFig2Utilization(t *testing.T) {
	s := quickSuite()
	rows, _ := s.Fig2Profiles()
	util := map[string]map[string]float64{}
	for _, r := range rows {
		if util[r.Design] == nil {
			util[r.Design] = map[string]float64{}
		}
		util[r.Design][r.Simulator] = r.Utilization
	}
	// RepCut keeps threads busier than the baseline on the biggest design.
	if util["MegaBOOM-4C"][SimRepCut] <= util["MegaBOOM-4C"][SimVerilator] {
		t.Errorf("RepCut utilization (%.2f) should exceed Verilator's (%.2f)",
			util["MegaBOOM-4C"][SimRepCut], util["MegaBOOM-4C"][SimVerilator])
	}
}

func TestFig11Crossover(t *testing.T) {
	s := quickSuite()
	pts, _ := s.Fig11Numa()
	sp := func(design string, k int, pl hostmodel.Placement) float64 {
		for _, p := range pts {
			if p.Design == design && p.K == k && p.Placement == pl {
				return p.Speedup
			}
		}
		t.Fatalf("missing %s/%d/%v", design, k, pl)
		return 0
	}
	// MegaBOOM-4C: interleaving wins at 24 threads (2x L3).
	if sp("MegaBOOM-4C", 24, hostmodel.Interleaved) <= sp("MegaBOOM-4C", 24, hostmodel.SameSocket) {
		t.Errorf("MegaBOOM-4C at 24 threads: interleaved should win")
	}
	// MegaBOOM-1C: same-socket wins (inter-socket latency only hurts).
	if sp("MegaBOOM-1C", 24, hostmodel.Interleaved) >= sp("MegaBOOM-1C", 24, hostmodel.SameSocket) {
		t.Errorf("MegaBOOM-1C at 24 threads: same-socket should win")
	}
}

func TestFig12Shape(t *testing.T) {
	s := quickSuite()
	rows, _ := s.Fig12PhaseProfile()
	frac := map[string]float64{} // mean eval fraction per design
	n := map[string]int{}
	ib := map[string]float64{}
	for _, r := range rows {
		frac[r.Design] += r.EvalNs / (r.EvalNs + r.WaitNs)
		n[r.Design]++
		ib[r.Design] = r.IBFactor
	}
	for d := range frac {
		frac[d] /= float64(n[d])
	}
	// The larger design spends a greater fraction of the cycle on useful
	// work and is better balanced (Figure 12's message).
	if frac["MegaBOOM-4C"] <= frac["RocketChip-4C"] {
		t.Errorf("eval fraction: mega=%.2f should exceed rocket=%.2f",
			frac["MegaBOOM-4C"], frac["RocketChip-4C"])
	}
	// Both runs should be reasonably balanced at 12 threads (the paper's
	// ib_factors are 0.43 and 0.14; our partitioner balances the small
	// design better than Verilator's era, so we only bound them).
	for d, v := range ib {
		if v > 0.6 {
			t.Errorf("ib_factor for %s too high: %.2f", d, v)
		}
	}
}

func TestFig13Correlation(t *testing.T) {
	s := quickSuite()
	pts := s.Scalability()
	fpts, _ := s.Fig13Efficiency(pts)
	if len(fpts) < 8 {
		t.Fatalf("too few efficiency points: %d", len(fpts))
	}
	// Negative rank correlation between imbalance and efficiency is the
	// figure's message; check a weak form: the mean efficiency of the
	// low-imbalance half exceeds that of the high-imbalance half.
	var lo, hi []float64
	var sum float64
	for _, p := range fpts {
		sum += p.Imbalance
	}
	mean := sum / float64(len(fpts))
	for _, p := range fpts {
		if p.Imbalance <= mean {
			lo = append(lo, p.Efficiency)
		} else {
			hi = append(hi, p.Efficiency)
		}
	}
	avg := func(xs []float64) float64 {
		var t float64
		for _, x := range xs {
			t += x
		}
		return t / float64(len(xs))
	}
	if len(lo) == 0 || len(hi) == 0 {
		t.Skip("degenerate imbalance distribution")
	}
	if avg(lo) <= avg(hi) {
		t.Errorf("efficiency should degrade with imbalance: lo=%.2f hi=%.2f", avg(lo), avg(hi))
	}
}

func TestFig14Ordering(t *testing.T) {
	s := quickSuite()
	pts, _ := s.Fig14Imbalance()
	violations := 0
	for _, p := range pts {
		// The hypergraph partition is nearly balanced; replication and
		// measurement add imbalance on top (allow small noise).
		if p.Excl > p.Incl+0.05 {
			violations++
		}
	}
	if violations > len(pts)/4 {
		t.Errorf("imbalance ordering excl<=incl violated in %d/%d points", violations, len(pts))
	}
}

func TestTable3Shape(t *testing.T) {
	s := quickSuite()
	tbl := s.Table3()
	out := tbl.String()
	for _, want := range []string{"instructions", "IPC", "Replication Cost", "24T/1S", "48T/2S"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table 3 missing %q:\n%s", want, out)
		}
	}
	// IPC must rise from 1 thread to 24 threads.
	cfg := designs.Config{Kind: designs.MegaBoom, Cores: 4, Scale: s.Scale}
	p1 := s.RepCutPerf(cfg, 1, false, 2, hostmodel.SameSocket)
	p24 := s.RepCutPerf(cfg, 24, false, 2, hostmodel.SameSocket)
	if p24.Counters.IPC <= p1.Counters.IPC*1.3 {
		t.Errorf("Table 3 IPC trend missing: 1T=%.2f 24T=%.2f", p1.Counters.IPC, p24.Counters.IPC)
	}
	if p24.Counters.BranchMissRate >= p1.Counters.BranchMissRate {
		t.Errorf("branch miss rate should fall with threads")
	}
}

func TestFig10CompilerEffect(t *testing.T) {
	s := quickSuite()
	pts, _ := s.Fig10Compiler()
	// O2 must beat O0 for RepCut on the largest design at the top k.
	var o0, o2 float64
	for _, p := range pts {
		if p.Design == "MegaBOOM-4C" && p.Simulator == SimRepCut && p.K == 24 {
			if p.OptLevel == 0 {
				o0 = p.KHz
			} else {
				o2 = p.KHz
			}
		}
	}
	if o0 == 0 || o2 <= o0 {
		t.Errorf("O2 (%.0f KHz) should beat O0 (%.0f KHz) for RepCut on MegaBOOM-4C", o2, o0)
	}
}

func TestRealEquivalenceSpotCheck(t *testing.T) {
	s := quickSuite()
	cfg := designs.Config{Kind: designs.SmallBoom, Cores: 1, Scale: 1}
	if err := s.RealEquivalence(cfg, 4, 50); err != nil {
		t.Fatal(err)
	}
}
