package designs

import (
	"testing"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/firrtl"
	"repro/internal/sim"
)

func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("design generation is slow in -short mode")
	}
	stats := map[string]struct {
		nodes   int
		sinkPct float64
	}{}
	for _, cfg := range Table1(1.0) {
		g, err := Build(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name(), err)
		}
		st := g.Stats()
		stats[cfg.Name()] = struct {
			nodes   int
			sinkPct float64
		}{st.IRNodes, st.SinkPct}
		if st.RegWrites == 0 || st.SinkVtx == 0 {
			t.Errorf("%s: no registers or sinks", cfg.Name())
		}
	}
	// Size ordering within each core count (Table 1 rows).
	for _, n := range []string{"-1C", "-2C", "-4C"} {
		r := stats["RocketChip"+n].nodes
		s := stats["SmallBOOM"+n].nodes
		l := stats["LargeBOOM"+n].nodes
		m := stats["MegaBOOM"+n].nodes
		if !(r < s && s < l && l < m) {
			t.Errorf("size order violated for %s: %d %d %d %d", n, r, s, l, m)
		}
	}
	// More cores => more nodes.
	for _, k := range []Kind{Rocket, SmallBoom, LargeBoom, MegaBoom} {
		n1 := stats[string(k)+"-1C"].nodes
		n2 := stats[string(k)+"-2C"].nodes
		n4 := stats[string(k)+"-4C"].nodes
		if !(n1 < n2 && n2 < n4) {
			t.Errorf("%s: core scaling violated: %d %d %d", k, n1, n2, n4)
		}
	}
	// Sink percentage decreases from small cores to big cores (Table 1).
	if !(stats["RocketChip-1C"].sinkPct > stats["LargeBOOM-1C"].sinkPct &&
		stats["LargeBOOM-1C"].sinkPct > stats["MegaBOOM-1C"].sinkPct) {
		t.Errorf("sink%% should fall with design size: rocket=%.2f large=%.2f mega=%.2f",
			stats["RocketChip-1C"].sinkPct, stats["LargeBOOM-1C"].sinkPct,
			stats["MegaBOOM-1C"].sinkPct)
	}
}

func TestDesignsDeterministic(t *testing.T) {
	cfg := Config{Kind: SmallBoom, Cores: 1, Scale: 0.5}
	g1, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumVertices() != g2.NumVertices() || g1.NumEdges() != g2.NumEdges() {
		t.Fatalf("generation not deterministic")
	}
}

// Every design must simulate: serial engine runs and state evolves.
func TestDesignsSimulate(t *testing.T) {
	for _, cfg := range []Config{
		{Kind: Rocket, Cores: 1, Scale: 0.5},
		{Kind: SmallBoom, Cores: 2, Scale: 0.25},
		{Kind: MegaBoom, Cores: 1, Scale: 0.25},
	} {
		g, err := Build(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name(), err)
		}
		prog, err := sim.Compile(g, sim.SerialSpec(g), sim.Config{OptLevel: 1})
		if err != nil {
			t.Fatalf("%s: compile: %v", cfg.Name(), err)
		}
		e := sim.NewEngine(prog)
		e.Run(50)
		out, err := e.PeekOutput("io_out")
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name(), err)
		}
		e.Run(50)
		out2, _ := e.PeekOutput("io_out")
		if out == 0 && out2 == 0 {
			t.Errorf("%s: output stuck at zero — stimulus not propagating", cfg.Name())
		}
		// LFSR-driven designs must not be in a trivial fixed point.
		if out == out2 {
			e.Run(1)
			out3, _ := e.PeekOutput("io_out")
			if out2 == out3 {
				t.Errorf("%s: output frozen across cycles", cfg.Name())
			}
		}
	}
}

// Parallel simulation of a generated design must match serial exactly.
func TestDesignParallelEquivalence(t *testing.T) {
	g, err := Build(Config{Kind: SmallBoom, Cores: 2, Scale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	serialProg, err := sim.Compile(g, sim.SerialSpec(g), sim.Config{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	serial := sim.NewEngine(serialProg)
	res, err := core.Partition(g, core.Options{K: 4, Seed: 1, Model: costmodel.Default()})
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Verify(g, res); err != nil {
		t.Fatal(err)
	}
	specs := make([]sim.PartSpec, len(res.Parts))
	for i := range res.Parts {
		specs[i] = sim.PartSpec{Vertices: res.Parts[i].Vertices, Sinks: res.Parts[i].Sinks}
	}
	prog, err := sim.Compile(g, specs, sim.Config{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	par := sim.NewEngine(prog)
	serial.Run(200)
	par.Run(200)
	for i := range g.Regs {
		sv, _ := serial.PeekReg(g.Regs[i].Name)
		pv, _ := par.PeekReg(g.Regs[i].Name)
		if sv.Big().Cmp(pv.Big()) != 0 {
			t.Fatalf("reg %s diverged: %v vs %v", g.Regs[i].Name, sv, pv)
		}
	}
}

// Replication cost at fixed thread count must be lower for the big design
// than for the small one (the Figure 6 trend enabling weak scaling).
func TestReplicationTrendAcrossSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	small, err := Build(Config{Kind: Rocket, Cores: 1, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Build(Config{Kind: MegaBoom, Cores: 4, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	k := 16
	rs, err := core.Partition(small, core.Options{K: k, Seed: 1, Model: costmodel.Default()})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := core.Partition(big, core.Options{K: k, Seed: 1, Model: costmodel.Default()})
	if err != nil {
		t.Fatal(err)
	}
	if rb.ReplicationCost >= rs.ReplicationCost {
		t.Errorf("MegaBOOM-4C replication (%.2f%%) should be below RocketChip-1C (%.2f%%) at k=%d",
			100*rb.ReplicationCost, 100*rs.ReplicationCost, k)
	}
}

// TestPrintedDesignsReparse is the README's `designgen > x.fir && repcut
// -file x.fir` flow for every bundled design: the text firrtl.Print writes
// must parse, check, and print back to itself. Design names carry a '-'
// ("RocketChip-1C"), which the lexer would read as the start of an integer.
func TestPrintedDesignsReparse(t *testing.T) {
	for _, cfg := range Table1(1) {
		text := firrtl.Print(BuildCircuit(cfg))
		c, err := firrtl.Parse(text)
		if err != nil {
			t.Errorf("%s: printed text does not parse: %v", cfg.Name(), err)
			continue
		}
		if err := firrtl.Check(c); err != nil {
			t.Errorf("%s: re-parsed circuit does not check: %v", cfg.Name(), err)
		}
		if firrtl.Print(c) != text {
			t.Errorf("%s: print → parse → print is not a fixed point", cfg.Name())
		}
	}
}
