package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	repcut "repro"
	"repro/internal/cgraph"
	"repro/internal/codegen"
	"repro/internal/cone"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/designs"
	"repro/internal/firrtl"
	"repro/internal/hostmodel"
	"repro/internal/sim"
	"repro/internal/verify"
	"repro/internal/verify/tvalid"
)

// The layer probes time calls into each module's public functions from
// outside, in this process. Times are medians of probeRepeats; counts must
// come out the same on every repeat or the probe fails.
const (
	probeRepeats = 5
	probeChunks  = 10 // a rate is segmentRate over this many equal Run calls
	callOverhead = 2000
)

// probes accumulates per-layer metrics.
type probes struct {
	tr *tracer
	m  map[string]float64
	// exact names the metrics that are counts: they must repeat exactly
	// between repeats, passes and (with one seed) invocations.
	exact map[string]bool
	// countErr is the first count that did not repeat.
	countErr error
}

// timeMs runs fn under a span and returns its duration in milliseconds.
func (p *probes) timeMs(name string, parent int, fn func() error) (float64, error) {
	id := p.tr.begin(name, parent)
	t := time.Now()
	err := fn()
	d := time.Since(t)
	p.tr.end(id)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	return float64(d.Nanoseconds()) / 1e6, nil
}

// count sets an exact metric. A value that differs from an earlier repeat's
// is remembered in countErr, which fails the probes.
func (p *probes) count(name string, v float64) {
	if old, ok := p.m[name]; ok && old != v && p.countErr == nil {
		p.countErr = fmt.Errorf("count %s did not repeat: %v then %v", name, old, v)
	}
	p.m[name] = v
	p.exact[name] = true
	p.tr.count(name, v)
}

// series collects the repeats of timed metrics and reduces them to medians.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }

func (s series) mediansInto(m map[string]float64) {
	for name, vs := range s {
		m[name] = median(vs)
	}
}

// runLayerProbes measures every per-layer metric that does not depend on
// which workload ran.
func (r *runner) runLayerProbes(tr *tracer) (*probes, error) {
	p := &probes{tr: tr, m: map[string]float64{}, exact: map[string]bool{}}
	steps := []struct {
		name string
		fn   func(*probes) error
	}{
		{"compile side", r.probeCompileSide},
		{"partition quality", r.probePartitionQuality},
		{"run side", r.probeRunSide},
		{"service", r.probeService},
	}
	for _, s := range steps {
		if err := s.fn(p); err != nil {
			return nil, fmt.Errorf("layer probes, %s: %w", s.name, err)
		}
		if p.countErr != nil {
			return nil, fmt.Errorf("layer probes, %s: %w", s.name, p.countErr)
		}
	}
	return p, nil
}

// probeCompileSide walks the text of MegaBOOM-4C through every compile-side
// layer at k=2, the path a compile-cold op takes inside repcutd.
func (r *runner) probeCompileSide(p *probes) error {
	text, err := designText(mega)
	if err != nil {
		return err
	}
	p.count("firrtl.src_bytes", float64(len(text)))
	model := costmodel.Default()
	ts := series{}
	for rep := 0; rep < probeRepeats; rep++ {
		root := p.tr.begin("bench.compile_side", 0)
		var err error // of the first step that failed; later steps are skipped
		step := func(metric, span string, fn func() error) {
			if err != nil {
				return
			}
			var ms float64
			ms, err = p.timeMs(span, root, fn)
			ts.add(metric, ms)
		}
		var (
			circ, flat, low *firrtl.Circuit
			g               *cgraph.Graph
			an              *cone.Analysis
			part            *core.Result
			specs           []sim.PartSpec
			o0, o2          *sim.Program
			lp              *sim.LinkedProgram
			cert            *tvalid.Result
		)
		step("firrtl.parse_ms", "firrtl.Parse", func() (e error) { circ, e = firrtl.Parse(text); return })
		step("firrtl.check_ms", "firrtl.Check", func() error { return firrtl.Check(circ) })
		step("firrtl.flatten_ms", "firrtl.Flatten", func() (e error) { flat, e = firrtl.Flatten(circ); return })
		step("firrtl.lower_ms", "firrtl.Lower", func() (e error) { low, e = firrtl.Lower(flat); return })
		step("cgraph.build_ms", "cgraph.Build", func() (e error) { g, e = cgraph.Build(low); return })
		step("cone.analyze_ms", "cone.Analyze", func() (e error) { an, e = cone.Analyze(g); return })
		step("core.partition_full_ms", "core.Partition", func() (e error) {
			part, e = core.Partition(g, core.Options{K: 2, Seed: 1, Model: model, Derep: true})
			return
		})
		step("core.partition_plain_ms", "core.Partition(NoRefine,-Derep)", func() (e error) {
			_, e = core.Partition(g, core.Options{K: 2, Seed: 1, Model: model, NoRefine: true})
			return
		})
		step("sim.compile_o0_ms", "sim.Compile(O0)", func() (e error) {
			specs = repcut.PartSpecs(part)
			o0, e = sim.Compile(g, specs, sim.Config{OptLevel: 0})
			return
		})
		step("sim.compile_ms", "sim.Compile(O2)", func() (e error) {
			o2, e = sim.Compile(g, specs, sim.Config{OptLevel: 2})
			return
		})
		step("sim.link_ms", "sim.Program.Linked", func() error { lp = o2.Linked(); return nil })
		step("verify.scan_ms", "verify.Program", func() error {
			return verify.Program(o2, verify.Options{Graph: g, Parts: specs, Linked: true}).Err()
		})
		step("verify.tvalid_ms", "tvalid.Validate", func() error {
			cert = tvalid.Validate(o0, o2, tvalid.Options{})
			return cert.Err()
		})
		p.tr.end(root)
		if err != nil {
			return err
		}
		p.count("cgraph.vertices", float64(g.NumVertices()))
		p.count("cgraph.edges", float64(g.NumEdges()))
		p.count("cone.clusters", float64(len(an.Clusters)))
		p.count("cone.sinks", float64(len(an.Sinks)))
		p.count("sim.instrs", float64(o2.TotalInstrs()))
		p.count("sim.linked_instrs", float64(lp.Stats.Linked))
		p.count("sim.fusion_rate", lp.Stats.FusionRate())
		p.count("sim.program_mem_bytes", float64(o2.MemBytes()))
		p.count("sim.state_bytes", float64(o2.StateBytes()))
		p.count("verify.tvalid_pairs", float64(cert.Pairs))
		p.count("verify.tvalid_proved", float64(cert.Proved))
	}
	ts.mediansInto(p.m)
	// Derived from the medians: core.Partition runs the cone analysis
	// itself, so its own time is what is left; refinement + dereplication is
	// what the default adds over the plain recursive bisection; the optimizer
	// is what O2 adds over O0.
	p.m["core.refine_derep_ms"] = p.m["core.partition_full_ms"] - p.m["core.partition_plain_ms"]
	p.m["core.partition_ms"] = p.m["core.partition_full_ms"] - p.m["cone.analyze_ms"]
	p.m["sim.optimize_ms"] = p.m["sim.compile_ms"] - p.m["sim.compile_o0_ms"]
	for _, scratch := range []string{"core.partition_full_ms", "core.partition_plain_ms", "sim.compile_o0_ms"} {
		delete(p.m, scratch)
	}
	return nil
}

// probePartitionQuality records the partitioner's exact outcome on
// MegaBOOM-4C at thread counts this host cannot time.
func (r *runner) probePartitionQuality(p *probes) error {
	g, err := designs.Build(mega)
	if err != nil {
		return err
	}
	for _, k := range []int{2, 8, 24} {
		var res *core.Result
		if _, err := p.timeMs(fmt.Sprintf("core.Partition(k=%d)", k), 0, func() (e error) {
			res, e = core.Partition(g, core.Options{K: k, Seed: 1, Model: costmodel.Default(), Derep: true})
			return
		}); err != nil {
			return err
		}
		pre := fmt.Sprintf("core.k%d.", k)
		p.count(pre+"replication_pct", 100*res.ReplicationCost)
		p.count(pre+"cut_cost", float64(res.CutCost))
		p.count(pre+"imbalance_incl", res.ImbalanceIncl)
		p.count(pre+"derep_regs", float64(res.DerepRegs))
	}
	return nil
}

// compileFor compiles cfg's generated text in process.
func compileFor(cfg designs.Config, threads int) (*repcut.Compiled, error) {
	text, err := designText(cfg)
	if err != nil {
		return nil, err
	}
	_, c, err := compileText(text, threads)
	return c, err
}

// chunkRate calls run(cycles) probeChunks times after one warm-up call and
// returns the segment rate in cycles (times scale) per second.
func (p *probes) chunkRate(span string, cycles int, scale float64, run func(n int)) float64 {
	run(cycles)
	rates := make([]float64, 0, probeChunks)
	for i := 0; i < probeChunks; i++ {
		id := p.tr.begin(span, 0)
		t := time.Now()
		run(cycles)
		d := time.Since(t)
		p.tr.end(id)
		rates = append(rates, scale*float64(cycles)/d.Seconds())
	}
	return segmentRate(rates)
}

// probeRunSide drives the engines directly: every executor tier on the two
// designs the workloads use, the per-Run call cost, the phase split of the
// parallel engine, the native kernel build, and what the host model predicts
// for the same programs.
func (r *runner) probeRunSide(p *probes) error {
	type cfgKey struct {
		label   string
		cfg     designs.Config
		threads int
		cycles  int // per chunk
	}
	configs := []cfgKey{
		{"rocket-1t", rocket, 1, 10000},
		{"rocket-2t", rocket, 2, 10000},
		{"mega-1t", mega, 1, 500},
		{"mega-2t", mega, 2, 800},
	}
	compiled := map[string]*repcut.Compiled{}
	for _, c := range configs {
		cp, err := compileFor(c.cfg, c.threads)
		if err != nil {
			return fmt.Errorf("%s: %w", c.label, err)
		}
		compiled[c.label] = cp
		eng := sim.NewEngine(cp.Program)
		p.m["sim.linked."+c.label+".cycles_per_s"] = p.chunkRate("sim.Engine.Run("+c.label+")", c.cycles, 1, eng.Run)
	}
	for _, d := range []string{"rocket", "mega"} {
		eng := sim.NewEngine(compiled[d+"-1t"].Program)
		eng.Run(10)
		p.count("sim.instrs_per_cycle."+d, float64(eng.InstrsRetired())/10)
		p.m["derived.par_speedup."+d] = p.m["sim.linked."+d+"-2t.cycles_per_s"] / p.m["sim.linked."+d+"-1t.cycles_per_s"]
		cpu := hostmodel.ScaledXeon8260()
		serial := hostmodel.Evaluate(cpu, hostmodel.WorkFromProgram(compiled[d+"-1t"].Program), hostmodel.SameSocket)
		par := hostmodel.Evaluate(cpu, hostmodel.WorkFromProgram(compiled[d+"-2t"].Program), hostmodel.SameSocket)
		p.count("hostmodel.par_speedup."+d, serial.CycleNs/par.CycleNs)
		p.m["derived.model_residual."+d] = p.m["derived.par_speedup."+d] - p.m["hostmodel.par_speedup."+d]
	}

	interp := sim.NewInterpEngine(compiled["rocket-1t"].Program)
	p.m["sim.interp.rocket-1t.cycles_per_s"] = p.chunkRate("sim.InterpEngine.Run(rocket-1t)", 4000, 1, interp.Run)

	for _, lanes := range []int{1, 16} {
		be, err := sim.NewBatchEngine(compiled["rocket-1t"].Program, lanes)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("sim.batch%d.rocket.lane_cycles_per_s", lanes)
		p.m[name] = p.chunkRate(fmt.Sprintf("sim.BatchEngine.Run(%d lanes)", lanes), 2000, float64(lanes), be.Run)
	}

	// (M x Run(1) - Run(M)) / M: what one more call into Run costs, which
	// is what a step(1) request pays and a bulk step does not.
	var run1us float64
	for _, label := range []string{"rocket-1t", "rocket-2t"} {
		eng := sim.NewEngine(compiled[label].Program)
		eng.Run(callOverhead)
		var singles, bulks []float64
		for rep := 0; rep < probeRepeats; rep++ {
			t := time.Now()
			for i := 0; i < callOverhead; i++ {
				eng.Run(1)
			}
			singles = append(singles, float64(time.Since(t).Nanoseconds())/1e3)
			t = time.Now()
			eng.Run(callOverhead)
			bulks = append(bulks, float64(time.Since(t).Nanoseconds())/1e3)
		}
		p.m["sim.run_call_overhead_us."+label] = (median(singles) - median(bulks)) / callOverhead
		if label == "rocket-1t" {
			run1us = median(singles) / callOverhead
		}
	}
	p.m["bench.inprocess_run1_us"] = run1us

	megaEng := sim.NewEngine(compiled["mega-2t"].Program)
	megaEng.Run(100)
	var trips []float64
	for rep := 0; rep < probeRepeats; rep++ {
		ms, err := p.timeMs("sim.Snapshot roundtrip", 0, func() error {
			snap, err := megaEng.Snapshot()
			if err != nil {
				return err
			}
			back, err := sim.DecodeSnapshot(snap.Encode())
			if err != nil {
				return err
			}
			return megaEng.RestoreSnapshot(back)
		})
		if err != nil {
			return err
		}
		trips = append(trips, ms)
	}
	p.m["sim.snapshot_roundtrip_ms.mega"] = median(trips)

	for _, c := range []struct {
		label  string
		cycles int
	}{{"rocket-2t", 20000}, {"mega-2t", 2000}} {
		eng := sim.NewEngine(compiled[c.label].Program)
		eng.Run(100)
		id := p.tr.begin("sim.Engine.RunProfiled("+c.label+")", 0)
		samples := eng.RunProfiled(c.cycles)
		p.tr.end(id)
		var eval, evalBar, upd, updBar float64
		perThread := make([]float64, compiled[c.label].Program.NumThreads)
		for _, row := range samples {
			for t, s := range row {
				eval += float64(s.Eval)
				evalBar += float64(s.EvalBarrier)
				upd += float64(s.Update)
				updBar += float64(s.UpdateBarrier)
				perThread[t] += float64(s.Eval)
			}
		}
		total := eval + evalBar + upd + updBar
		pre := "sim.phase." + c.label + "."
		p.m[pre+"eval_share"] = eval / total
		p.m[pre+"eval_barrier_share"] = evalBar / total
		p.m[pre+"update_share"] = upd / total
		p.m[pre+"update_barrier_share"] = updBar / total
		maxEval, sumEval := 0.0, 0.0
		for _, e := range perThread {
			maxEval = max(maxEval, e)
			sumEval += e
		}
		p.m[pre+"imbalance_measured"] = maxEval / (sumEval / float64(len(perThread)))
	}

	return r.probeNative(p, compiled)
}

// probeNative builds the native kernels into an empty artifact store and
// runs them. On a host that cannot build or load plugins the native metrics
// are reported as 0 and the reason goes to standard error.
func (r *runner) probeNative(p *probes, compiled map[string]*repcut.Compiled) error {
	names := []string{"codegen.kernel_cold_ms", "codegen.kernel_warm_ms",
		"sim.native.rocket-1t.cycles_per_s", "sim.native.rocket-2t.cycles_per_s", "derived.native_speedup.rocket"}
	if err := codegen.Supported(); err != nil {
		fmt.Fprintln(os.Stderr, "native probes skipped:", err)
		for _, n := range names {
			p.m[n] = 0
		}
		return nil
	}
	dir, err := r.freshDir("store")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := codegen.Open(dir, 0)
	if err != nil {
		return err
	}
	defer store.Close()
	for _, label := range []string{"rocket-1t", "rocket-2t"} {
		prog := compiled[label].Program
		cold, err := p.timeMs("codegen.Store.Ensure("+label+")", 0, func() error {
			info, err := store.Ensure(prog, codegen.EmitOptions{})
			if err == nil && !info.Built {
				err = fmt.Errorf("artifact was already in an empty store")
			}
			return err
		})
		if err != nil {
			return err
		}
		var k *codegen.Kernel
		warm, err := p.timeMs("codegen.Store.Kernel("+label+")", 0, func() (e error) {
			k, e = store.Kernel(prog, codegen.EmitOptions{})
			return
		})
		if err != nil {
			return err
		}
		if label == "rocket-1t" {
			p.m["codegen.kernel_cold_ms"], p.m["codegen.kernel_warm_ms"] = cold, warm
		}
		eng := sim.NewEngine(prog)
		if err := eng.InstallNative(k.Threads); err != nil {
			return err
		}
		p.m["sim.native."+label+".cycles_per_s"] = p.chunkRate("sim.Engine.Run(native "+label+")", 20000, 1, eng.Run)
	}
	p.m["derived.native_speedup.rocket"] = p.m["sim.native.rocket-1t.cycles_per_s"] / p.m["sim.linked.rocket-1t.cycles_per_s"]
	return nil
}

// probeService measures the service layer from the client side, one span
// per request, against a repcutd with default flags, and the native
// build-behind tier against a repcutd -codegen; the server's own counters
// are read from /metrics.
func (r *runner) probeService(p *probes) error {
	w, _ := findWorkload("serve-lockstep")
	lv, _, _, err := r.setup(w, p.tr)
	if err != nil {
		return err
	}
	err = func() error {
		a := lv.a
		root := p.tr.begin("bench.service_probe", 0)
		defer p.tr.end(root)
		ts := series{}
		ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
		const sessionsPerClient, steps = 10, 100
		errs := make([]error, lockstepClients)
		locals := make([]series, lockstepClients)
		var wg sync.WaitGroup
		for c := 0; c < lockstepClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(r.seed + int64(c)))
				local := series{}
				locals[c] = local
				errs[c] = func() error {
					for s := 0; s < sessionsPerClient; s++ {
						resp, d, err := a.compile(root, w.request(lv.text))
						if err != nil {
							return err
						}
						if !resp.CacheHit {
							a.mismatch("service probe compile missed the cache")
						}
						local.add("service.compile_hit_ms", ms(d))
						sess, d, err := a.session(root, resp.Key, false)
						if err != nil {
							return err
						}
						local.add("service.session_create_ms", ms(d))
						for i := 1; i <= steps; i++ {
							if d, err = a.poke(root, sess, rng.Uint64()); err != nil {
								return err
							}
							local.add("service.poke_ms", ms(d))
							if d, err = a.step(root, sess, 1, uint64(i)); err != nil {
								return err
							}
							local.add("service.step1_ms", ms(d))
							if _, d, err = a.peek(root, sess, "io_out", false); err != nil {
								return err
							}
							local.add("service.peek_ms", ms(d))
						}
						if _, d, err = a.checkpoint(root, sess); err != nil {
							return err
						}
						local.add("service.checkpoint_ms", ms(d))
						if d, err = a.close(root, sess); err != nil {
							return err
						}
						local.add("service.close_ms", ms(d))
					}
					return nil
				}()
			}(c)
		}
		wg.Wait()
		for _, local := range locals {
			for name, vs := range local {
				ts[name] = append(ts[name], vs...)
			}
		}
		if err := errors.Join(errs...); err != nil {
			return err
		}
		ts.mediansInto(p.m)
		p.m["service.step_overhead_us"] = 1e3*p.m["service.step1_ms"] - p.m["bench.inprocess_run1_us"]
		delete(p.m, "bench.inprocess_run1_us")
		snap, err := a.cl.Metrics()
		if err != nil {
			return err
		}
		p.m["service.batch.mean_lanes_per_run"] = snap.Batch.MeanLanesPerRun
		p.m["service.batch.occupancy"] = snap.Batch.OccupancyRatio
		p.m["service.cache.hit_rate"] = snap.Cache.HitRate
		p.m["service.sessions.rejected"] = float64(snap.Sessions.Rejected)
		p.m["service.compile.rejected"] = float64(snap.Compile.Rejected)
		if f := a.failed.Load(); f > 0 {
			return fmt.Errorf("%d service probe operations failed", f)
		}
		return nil
	}()
	if stopErr := lv.srv.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}

	nw, _ := findWorkload("run-rocket-native-1t")
	lv, _, swapWait, err := r.setup(nw, p.tr)
	if err != nil {
		return err
	}
	snap, err := lv.a.cl.Metrics()
	if stopErr := lv.srv.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}
	p.m["service.codegen.build_ms"] = snap.Codegen.BuildLatency.AvgMs
	p.m["service.codegen.hot_swap_wait_s"] = swapWait
	return nil
}
