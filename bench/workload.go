package main

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	repcut "repro"
	"repro/internal/designs"
	"repro/internal/service"
	"repro/internal/sim"
)

// How much work one run does. Work is fixed in cycles and operations for a
// given --seconds, never by a clock, so two commits being compared do
// identical work; the per-segment sizes were chosen so that on the 2-core
// reference host the timed window lasts about --seconds.
const (
	segmentsPerSecond = 8  // run-* step requests per --seconds
	minSegments       = 40 // floor, whatever --seconds says
	opsPerSecond      = 4  // compile-cold ops per --seconds
	minOps            = 24

	lockstepClients      = 2 // = nproc on the reference host
	lockstepSteps        = 1000
	lockstepSegmentSteps = 250
	// lockstep sessions per client: 3 per 2 --seconds, at least 5.
	minLockstepSessions = 5

	setupRepeats = 9 // set-ups per run; setup_s is taken over them
	// never-seen submits to each set-up server; first_cycle_s is taken over
	// all of them, so that it covers several server instances
	coldSubmits = 3

	// cpu_s_per_mcycle is taken over blocks of this many consecutive
	// segments: about a second each, ten or more to a window.
	runCPUBlock  = 8
	coldCPUBlock = 4

	oracleCycles     = 64 // cycles compared value by value with sim.Reference
	oracleRegSample  = 32
	oracleHashChunks = 4 // poke+step requests after the compared cycles
)

type kind int

const (
	kindRun kind = iota
	kindCompileCold
	kindLockstep
)

// workload is one named traffic mix. All are closed loops: a client sends
// its next request when the previous one has been answered.
type workload struct {
	name    string
	why     string
	kind    kind
	cfg     designs.Config
	threads int
	native  bool
	// cycles is the size of one step request (run-*) or the cycles stepped
	// after the first one in each op (compile-cold).
	cycles int
}

var workloads = []workload{
	{name: "run-rocket-1t", kind: kindRun, cfg: rocket, threads: 1, cycles: 30000,
		why: "RocketChip-1C on one thread, bulk steps: pure executor speed, no barrier, no HTTP share"},
	{name: "run-rocket-2t", kind: kindRun, cfg: rocket, threads: 2, cycles: 30000,
		why: "same text, pokes and cycles on two threads: the two per-cycle barriers are a large share"},
	{name: "run-mega-2t", kind: kindRun, cfg: mega, threads: 2, cycles: 3000,
		why: "MegaBOOM-4C on two threads: eval-bound parallel run, the paper's regime; bypass for barrier tuning"},
	{name: "run-rocket-native-1t", kind: kindRun, cfg: rocket, threads: 1, native: true, cycles: 30000,
		why: "repcutd -codegen with a cold artifact store, timed after the hot swap: the native tier"},
	{name: "compile-cold", kind: kindCompileCold, cfg: mega, threads: 2, cycles: 999,
		why: "every op compiles never-seen MegaBOOM-4C text with validation: compile-side layers, cache miss"},
	{name: "serve-lockstep", kind: kindLockstep, cfg: rocket, threads: 1,
		why: "two clients poke/step(1)/peek on cache-hit sessions: HTTP, session and batch-tier cost per step"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) request(text string) service.CompileRequest {
	return service.CompileRequest{Source: text, Threads: w.threads, Validate: w.kind == kindCompileCold}
}

// solo reports whether the workload pins its sessions to private engines.
// Only serve-lockstep takes the server's default placement (the batch tier).
func (w workload) solo() bool { return w.kind != kindLockstep }

// api is the benchmark's view of one repcutd: every call is a span and an
// attempted operation; a non-2xx answer or transport error is a failed one.
type api struct {
	cl        *service.Client
	tr        *tracer
	attempted atomic.Int64
	failed    atomic.Int64
}

func (a *api) call(name string, parent int, fn func() error) (time.Duration, error) {
	id := a.tr.begin(name, parent)
	t := time.Now()
	err := fn()
	d := time.Since(t)
	a.tr.end(id)
	a.attempted.Add(1)
	if err != nil {
		a.failed.Add(1)
		err = fmt.Errorf("%s: %w", name, err)
	}
	return d, err
}

func (a *api) compile(parent int, req service.CompileRequest) (resp *service.CompileResponse, d time.Duration, err error) {
	d, err = a.call("service.compile", parent, func() (e error) { resp, e = a.cl.Compile(req); return })
	return
}

func (a *api) session(parent int, key string, solo bool) (s *service.SessionHandle, d time.Duration, err error) {
	d, err = a.call("service.session_create", parent, func() (e error) {
		if solo {
			s, e = a.cl.NewSoloSession(key)
		} else {
			s, e = a.cl.NewSession(key)
		}
		return
	})
	return
}

func (a *api) poke(parent int, s *service.SessionHandle, v uint64) (time.Duration, error) {
	return a.call("service.poke", parent, func() error { return s.Poke(stimPort, v) })
}

// step advances n cycles and checks the cycle counter the server returns.
func (a *api) step(parent int, s *service.SessionHandle, n int, wantCycle uint64) (time.Duration, error) {
	return a.call("service.step", parent, func() error {
		got, err := s.Run(n)
		if err == nil && got != wantCycle {
			err = fmt.Errorf("session at cycle %d, want %d", got, wantCycle)
		}
		return err
	})
}

func (a *api) peek(parent int, s *service.SessionHandle, name string, reg bool) (v uint64, d time.Duration, err error) {
	d, err = a.call("service.peek", parent, func() (e error) {
		if reg {
			v, e = s.PeekReg(name)
		} else {
			v, e = s.Peek(name)
		}
		return
	})
	return
}

func (a *api) checkpoint(parent int, s *service.SessionHandle) (cp *service.CheckpointResponse, d time.Duration, err error) {
	d, err = a.call("service.checkpoint", parent, func() (e error) { cp, e = s.Checkpoint(); return })
	return
}

func (a *api) close(parent int, s *service.SessionHandle) (time.Duration, error) {
	return a.call("service.close", parent, func() error { _, err := s.Close(); return err })
}

// mismatch records a wrong answer to a request that itself succeeded.
func (a *api) mismatch(format string, args ...any) {
	a.failed.Add(1)
	fmt.Fprintf(os.Stderr, "MISMATCH: "+format+"\n", args...)
}

// runner holds what every workload run of one invocation shares.
type runner struct {
	repcutd string // path of the built binary
	scratch string // directory for server scratch dirs
	seed    int64
	seconds int
}

// freshDir makes a new, empty directory under the scratch directory.
func (r *runner) freshDir(prefix string) (string, error) {
	if err := os.MkdirAll(r.scratch, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(r.scratch, prefix+"-*")
}

// runResult is everything one workload run measured.
type runResult struct {
	e2e       map[string]float64
	attempted int64
	failed    int64
	// oracleHash is the state_hash after the fixed oracle sequence (equal
	// to the in-process engine's, or the run failed); finalHash is the
	// timed session's at the end of the window (run-* only).
	oracleHash string
	finalHash  string

	segRates      []float64
	stepMs        []float64
	tracedRates   []float64 // segment rates of the traced half (trace pass)
	untracedRates []float64
	loadgenCPU    float64 // this process's CPU seconds over the window
	serverCPU     float64
}

// live is a set-up server: spawned, compiled into, warmed.
type live struct {
	srv  *server
	a    *api
	key  string
	text string
}

func (r *runner) segments() int { return max(minSegments, segmentsPerSecond*r.seconds) }
func (r *runner) ops() int      { return max(minOps, opsPerSecond*r.seconds) }
func (r *runner) lockstepSessions() int {
	return max(minLockstepSessions, 3*r.seconds/2)
}

// setup is the work a user pays before the first useful cycle: spawn
// repcutd, wait until it listens, generate the text, compile it (a true
// cold submit: fresh process, empty caches), step the first cycle, wait for
// the native hot swap where there is one, and run one warm-up segment.
func (r *runner) setup(w workload, tr *tracer) (lv *live, setupS, swapWaitS float64, err error) {
	t0 := time.Now()
	dir, err := r.freshDir(w.name)
	if err != nil {
		return nil, 0, 0, err
	}
	srv, err := startServer(r.repcutd, dir, w.native)
	if err != nil {
		return nil, 0, 0, err
	}
	defer func() {
		if err != nil {
			_ = srv.stop()
		}
	}()
	a := &api{cl: srv.client(newHTTPClient(lockstepClients)), tr: tr}
	root := tr.begin("bench.setup", 0)
	defer tr.end(root)

	text, err := designText(w.cfg)
	if err != nil {
		return nil, 0, 0, err
	}
	resp, _, err := a.compile(root, w.request(text))
	if err != nil {
		return nil, 0, 0, err
	}
	if resp.CacheHit {
		return nil, 0, 0, fmt.Errorf("setup: first compile on a fresh repcutd was a cache hit")
	}
	sess, _, err := a.session(root, resp.Key, w.solo())
	if err != nil {
		return nil, 0, 0, err
	}
	if _, err = a.step(root, sess, 1, 1); err != nil {
		return nil, 0, 0, err
	}

	cycle := uint64(1)
	if w.native {
		tw := time.Now()
		swapped, err := waitHotSwap(a, root, sess, &cycle)
		if err != nil {
			return nil, 0, 0, err
		}
		if !swapped {
			fmt.Fprintln(os.Stderr, "native tier unavailable on this host: measuring the linked fallback repcutd -codegen serves")
		}
		swapWaitS = time.Since(tw).Seconds()
	}

	lv = &live{srv: srv, a: a, key: resp.Key, text: text}
	switch w.kind {
	case kindRun:
		cycle += uint64(w.cycles)
		_, err = a.step(root, sess, w.cycles, cycle)
	case kindCompileCold:
		_, _, _, err = r.coldOp(lv, w, root, "warm", 0)
	case kindLockstep:
		rng := rand.New(rand.NewSource(r.seed))
		for i := 0; i < lockstepSegmentSteps && err == nil; i++ {
			cycle++
			_, _, err = lockstepStep(a, root, sess, rng.Uint64(), cycle)
		}
	}
	if err != nil {
		return nil, 0, 0, err
	}
	if _, err = a.close(root, sess); err != nil {
		return nil, 0, 0, err
	}
	return lv, time.Since(t0).Seconds(), swapWaitS, nil
}

// waitHotSwap blocks until the build-behind native kernel has been
// delivered and sess runs on it. It returns false when this host cannot
// build or load plugins, in which case repcutd serves the linked engine.
func waitHotSwap(a *api, parent int, sess *service.SessionHandle, cycle *uint64) (bool, error) {
	id := a.tr.begin("service.codegen.hot_swap_wait", parent)
	defer a.tr.end(id)
	deadline := time.Now().Add(120 * time.Second)
	for {
		m, err := a.cl.Metrics()
		if err != nil {
			return false, err
		}
		cg := m.Codegen
		switch {
		case !cg.Enabled:
			return false, nil
		case cg.BuildErrors > 0:
			return false, fmt.Errorf("native build failed (codegen.build_errors=%d)", cg.BuildErrors)
		case cg.SessionsHotSwapped > 0:
			return true, nil
		case cg.ArtifactHits+cg.ArtifactMisses > 0:
			// The kernel has landed; the session swaps on its next operation.
			*cycle++
			if _, err := a.step(id, sess, 1, *cycle); err != nil {
				return false, err
			}
			continue
		}
		if time.Now().After(deadline) {
			return false, fmt.Errorf("no native kernel after 120s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// lockstepStep is one testbench iteration: poke, step one cycle, peek. It
// returns the peeked output and the latency of the step request.
func lockstepStep(a *api, parent int, s *service.SessionHandle, stim, wantCycle uint64) (out uint64, step time.Duration, err error) {
	if _, err = a.poke(parent, s, stim); err != nil {
		return 0, 0, err
	}
	if step, err = a.step(parent, s, 1, wantCycle); err != nil {
		return 0, 0, err
	}
	out, _, err = a.peek(parent, s, "io_out", false)
	return out, step, err
}

// submitCold sends text the server has never seen, opens a session on it and
// steps the first cycle. It returns the open session and the time from the
// compile request to the answer of that step(1).
func (r *runner) submitCold(lv *live, w workload, parent int, tag string, i int) (*service.SessionHandle, float64, error) {
	a := lv.a
	t0 := time.Now()
	resp, _, err := a.compile(parent, w.request(neverSeen(lv.text, r.seed, tag, i)))
	if err != nil {
		return nil, 0, err
	}
	if resp.CacheHit {
		a.mismatch("never-seen text %s-%d hit the cache", tag, i)
	}
	sess, _, err := a.session(parent, resp.Key, w.solo())
	if err != nil {
		return nil, 0, err
	}
	if _, err = a.step(parent, sess, 1, 1); err != nil {
		return nil, 0, err
	}
	return sess, time.Since(t0).Seconds(), nil
}

// coldOp is one compile-cold operation: compile never-seen text, open a
// private session, step the first cycle, step w.cycles more, close.
func (r *runner) coldOp(lv *live, w workload, parent int, tag string, i int) (opS, firstCycleS, stepMs float64, err error) {
	a := lv.a
	id := a.tr.begin("bench.op", parent)
	defer a.tr.end(id)
	t0 := time.Now()
	sess, firstCycleS, err := r.submitCold(lv, w, id, tag, i)
	if err != nil {
		return 0, 0, 0, err
	}
	d, err := a.step(id, sess, w.cycles, uint64(1+w.cycles))
	if err != nil {
		return 0, 0, 0, err
	}
	if _, err = a.close(id, sess); err != nil {
		return 0, 0, 0, err
	}
	return time.Since(t0).Seconds(), firstCycleS, float64(d.Nanoseconds()) / 1e6, nil
}

// run executes one workload: set up several times, half of them before and
// half after the timed window so that one slow spell of the host cannot cover
// them all; on the last server set up before the window, check the outputs
// against the reference and run the window; collect the end-to-end metrics.
// With a tracer it sets up once and records spans for every other segment of
// the window.
func (r *runner) run(w workload, tr *tracer) (*runResult, error) {
	res := &runResult{e2e: map[string]float64{}}
	reps := setupRepeats
	if tr != nil {
		reps = 1
	}
	var setups, firstCycles []float64
	// release stops a server and folds its operation counts into res.
	release := func(lv *live) error {
		res.attempted += lv.a.attempted.Load()
		res.failed += lv.a.failed.Load()
		if err := lv.srv.stop(); err != nil {
			return fmt.Errorf("%s: stop repcutd: %w", w.name, err)
		}
		return nil
	}
	// sample sets one server up from nothing and sends it the never-seen
	// submits (in compile-cold every op of the window is one already).
	sample := func() (*live, error) {
		lv, s, _, err := r.setup(w, tr)
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		setups = append(setups, s)
		for j := 0; j < coldSubmits && w.kind != kindCompileCold; j++ {
			fc, err := r.coldSubmit(lv, w, len(firstCycles))
			if err != nil {
				_ = release(lv)
				return nil, fmt.Errorf("%s: cold submit: %w", w.name, err)
			}
			firstCycles = append(firstCycles, fc)
		}
		return lv, nil
	}

	before := (reps + 1) / 2
	var lv *live
	for i := 0; i < before; i++ {
		if lv != nil {
			if err := release(lv); err != nil {
				return nil, err
			}
		}
		var err error
		if lv, err = sample(); err != nil {
			return nil, err
		}
	}
	windowFirstCycles, err := r.measure(lv, w, tr, res)
	if stopErr := release(lv); err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, err
	}
	firstCycles = append(firstCycles, windowFirstCycles...)
	for i := before; i < reps; i++ {
		lv, err := sample()
		if err != nil {
			return nil, err
		}
		if err := release(lv); err != nil {
			return nil, err
		}
	}

	res.e2e["setup_s"] = leastInterfered(setups)
	res.e2e["first_cycle_s"] = leastInterfered(firstCycles)
	res.e2e["sim_cycles_per_s"] = segmentRate(res.segRates)
	if w.kind == kindLockstep {
		// segments are per client and the clients run side by side
		res.e2e["sim_cycles_per_s"] *= lockstepClients
	}
	res.e2e["step_p10_ms"] = leastInterfered(res.stepMs)
	return res, nil
}

// measure is the part of a run that happens on the kept server: the oracle,
// the timed window, and the server-side readings taken when it ends. It
// returns the first-cycle samples the window itself produced (compile-cold).
func (r *runner) measure(lv *live, w workload, tr *tracer, res *runResult) (firstCycles []float64, err error) {
	a := lv.a
	ref, err := newReference(lv.text)
	if err != nil {
		return nil, err
	}
	if res.oracleHash, err = ref.check(a, tr, lv.key, w.solo(), r.seed); err != nil {
		return nil, fmt.Errorf("%s: oracle: %w", w.name, err)
	}

	meter := &cpuMeter{pid: lv.srv.pid()}
	if err := meter.sample(0); err != nil {
		return nil, err
	}
	self0, err := cpuSeconds(os.Getpid())
	if err != nil {
		return nil, err
	}
	block := 1
	switch w.kind {
	case kindRun:
		block = runCPUBlock
		err = r.runWindow(lv, w, tr, meter, res)
	case kindCompileCold:
		block = coldCPUBlock
		firstCycles, err = r.compileColdWindow(lv, w, tr, meter, res)
	case kindLockstep:
		err = r.lockstepWindow(lv, w, tr, ref, meter, res)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	self1, err := cpuSeconds(os.Getpid())
	if err != nil {
		return nil, err
	}
	res.serverCPU, res.loadgenCPU = meter.total(), self1-self0
	res.e2e["cpu_s_per_mcycle"] = leastInterfered(meter.perMcycle(block))

	if w.native {
		m, err := a.cl.Metrics()
		if err != nil {
			return nil, err
		}
		if m.Codegen.Enabled && m.Codegen.SessionsHotSwapped < 3 {
			// set-up, oracle and timed sessions must each have swapped
			a.mismatch("only %d sessions ran on the native kernel, want 3", m.Codegen.SessionsHotSwapped)
		}
	}
	res.e2e["server_rss_peak_mb"], err = peakRSSMB(lv.srv.pid())
	return firstCycles, err
}

// coldSubmit is one never-seen submit outside compile-cold: it returns the
// time to the first cycle and closes the session.
func (r *runner) coldSubmit(lv *live, w workload, i int) (float64, error) {
	a := lv.a
	id := a.tr.begin("bench.cold_submit", 0)
	defer a.tr.end(id)
	sess, firstCycleS, err := r.submitCold(lv, w, id, "cold", i)
	if err != nil {
		return 0, err
	}
	_, err = a.close(id, sess)
	return firstCycleS, err
}

// record files one segment's rate under the traced or untraced half.
func (res *runResult) record(rate float64, traced bool) {
	res.segRates = append(res.segRates, rate)
	if traced {
		res.tracedRates = append(res.tracedRates, rate)
	} else {
		res.untracedRates = append(res.untracedRates, rate)
	}
}

// runWindow is the timed part of a run-* workload: one private session from
// power-on, then per segment one seeded poke and one step request.
func (r *runner) runWindow(lv *live, w workload, tr *tracer, meter *cpuMeter, res *runResult) error {
	a := lv.a
	root := tr.begin("bench.window", 0)
	sess, _, err := a.session(root, lv.key, true)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.seed))
	var cycle uint64
	for i := 0; i < r.segments(); i++ {
		traced := tr != nil && i%2 == 1
		seg := untraced
		if traced {
			seg = tr.begin("bench.segment", root)
		}
		if _, err := a.poke(seg, sess, rng.Uint64()); err != nil {
			return err
		}
		cycle += uint64(w.cycles)
		d, err := a.step(seg, sess, w.cycles, cycle)
		if err != nil {
			return err
		}
		tr.end(seg)
		if err := meter.sample(cycle); err != nil {
			return err
		}
		res.stepMs = append(res.stepMs, float64(d.Nanoseconds())/1e6)
		res.record(float64(w.cycles)/d.Seconds(), traced)
	}
	tr.end(root)
	cp, _, err := a.checkpoint(0, sess)
	if err != nil {
		return err
	}
	res.finalHash = cp.StateHash
	_, err = a.close(0, sess)
	return err
}

// compileColdWindow is the timed part of compile-cold: one client, every op
// a cache miss.
func (r *runner) compileColdWindow(lv *live, w workload, tr *tracer, meter *cpuMeter, res *runResult) ([]float64, error) {
	root := tr.begin("bench.window", 0)
	defer tr.end(root)
	var firstCycles []float64
	for i := 0; i < r.ops(); i++ {
		traced := tr != nil && i%2 == 1
		parent := untraced
		if traced {
			parent = root
		}
		opS, fc, stepMs, err := r.coldOp(lv, w, parent, "op", i)
		if err != nil {
			return nil, err
		}
		if err := meter.sample(uint64((i + 1) * (1 + w.cycles))); err != nil {
			return nil, err
		}
		firstCycles = append(firstCycles, fc)
		res.stepMs = append(res.stepMs, stepMs)
		res.record(float64(1+w.cycles)/opS, traced)
	}
	return firstCycles, nil
}

// lockstepWindow is the timed part of serve-lockstep: two clients, each
// running sessions one after another on the compiled (cache-hit) design with
// the server's default placement, poke/step(1)/peek per cycle. Every peeked
// value and every final state hash is checked against an in-process engine
// after the window.
func (r *runner) lockstepWindow(lv *live, w workload, tr *tracer, ref *reference, meter *cpuMeter, res *runResult) error {
	a := lv.a
	root := tr.begin("bench.window", 0)
	defer tr.end(root)
	type sessionLog struct {
		stims, outs []uint64
		hash        string
	}
	nSess := r.lockstepSessions()
	logs := make([][]sessionLog, lockstepClients)
	type clientOut struct {
		rates, stepMs []float64
		traced        []bool // per entry of rates
		err           error
	}
	outs := make([]clientOut, lockstepClients)
	var stepped atomic.Uint64 // cycles stepped by all clients so far
	var wg sync.WaitGroup
	for c := 0; c < lockstepClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &outs[c]
			rng := rand.New(rand.NewSource(r.seed*1000 + int64(c)))
			for s := 0; s < nSess && out.err == nil; s++ {
				lg := sessionLog{}
				traced := tr != nil && s%2 == 1
				out.err = func() error {
					id := untraced
					if traced {
						id = a.tr.begin("bench.session", root)
					}
					defer a.tr.end(id)
					resp, _, err := a.compile(id, w.request(lv.text))
					if err != nil {
						return err
					}
					if !resp.CacheHit {
						a.mismatch("serve-lockstep compile missed the cache")
					}
					sess, _, err := a.session(id, resp.Key, false)
					if err != nil {
						return err
					}
					segStart := time.Now()
					for i := 1; i <= lockstepSteps; i++ {
						stim := rng.Uint64()
						v, d, err := lockstepStep(a, id, sess, stim, uint64(i))
						if err != nil {
							return err
						}
						stepped.Add(1)
						lg.stims, lg.outs = append(lg.stims, stim), append(lg.outs, v)
						out.stepMs = append(out.stepMs, float64(d.Nanoseconds())/1e6)
						if i%lockstepSegmentSteps == 0 {
							out.rates = append(out.rates, lockstepSegmentSteps/time.Since(segStart).Seconds())
							out.traced = append(out.traced, traced)
							segStart = time.Now()
						}
					}
					cp, _, err := a.checkpoint(id, sess)
					if err != nil {
						return err
					}
					lg.hash = cp.StateHash
					if _, err = a.close(id, sess); err != nil {
						return err
					}
					if c == 0 { // one client meters the server for both
						return meter.sample(stepped.Load())
					}
					return nil
				}()
				logs[c] = append(logs[c], lg)
			}
		}(c)
	}
	wg.Wait()
	for c := range outs {
		if outs[c].err != nil {
			return outs[c].err
		}
		res.stepMs = append(res.stepMs, outs[c].stepMs...)
		for i, rate := range outs[c].rates {
			res.record(rate, outs[c].traced[i])
		}
	}
	for c := range logs {
		for s, lg := range logs[c] {
			eng := ref.engine()
			for i, stim := range lg.stims {
				if err := eng.PokeInput(stimPort, stim); err != nil {
					return err
				}
				eng.Run(1)
				want, err := eng.PeekOutput("io_out")
				if err != nil {
					return err
				}
				if lg.outs[i] != want {
					a.mismatch("serve-lockstep client %d session %d cycle %d: io_out %#x, want %#x", c, s, i+1, lg.outs[i], want)
					break
				}
			}
			if want := fmt.Sprintf("%016x", eng.StateHash()); lg.hash != want {
				a.mismatch("serve-lockstep client %d session %d: state_hash %s, want %s", c, s, lg.hash, want)
			}
		}
	}
	return nil
}

// reference is the in-process side of the correctness check: the same text
// repcutd was given, elaborated here, evaluated by sim.Reference (value by
// value) and by a single-thread linked engine (state hash).
type reference struct {
	design   *repcut.Design
	compiled *repcut.Compiled
}

func newReference(text string) (*reference, error) {
	d, c, err := compileText(text, 1)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	return &reference{design: d, compiled: c}, nil
}

// compileText elaborates and compiles FIRRTL text in this process.
func compileText(text string, threads int) (*repcut.Design, *repcut.Compiled, error) {
	circ, err := repcut.ParseCircuit(text)
	if err != nil {
		return nil, nil, err
	}
	d, err := repcut.Elaborate(circ)
	if err != nil {
		return nil, nil, err
	}
	c, err := d.CompileProgram(repcut.Options{Threads: threads})
	return d, c, err
}

func (ref *reference) engine() *sim.Engine { return ref.compiled.NewSimulator().Engine }

// check drives one fresh session: oracleCycles cycles of poke/step(1) with
// every narrow output and a seeded sample of narrow registers peeked over
// HTTP and compared with sim.Reference, then oracleHashChunks bulk steps and
// a checkpoint whose state_hash must equal the in-process engine's on the
// same pokes. Mismatches are counted on a; the returned error is for
// requests that failed outright.
func (ref *reference) check(a *api, tr *tracer, key string, solo bool, seed int64) (string, error) {
	root := tr.begin("bench.oracle", 0)
	defer tr.end(root)
	g := ref.design.Graph
	rng := rand.New(rand.NewSource(seed))

	var outputs, regs []string
	for _, o := range g.Outputs {
		if g.Vs[o].Type.Width <= 64 {
			outputs = append(outputs, g.Vs[o].Name)
		}
	}
	for i := range g.Regs {
		if g.Regs[i].Type.Width <= 64 {
			regs = append(regs, g.Regs[i].Name)
		}
	}
	rng.Shuffle(len(regs), func(i, j int) { regs[i], regs[j] = regs[j], regs[i] })
	regs = regs[:min(oracleRegSample, len(regs))]

	sess, _, err := a.session(root, key, solo)
	if err != nil {
		return "", err
	}
	golden := sim.NewReference(g)
	eng := ref.engine()
	var cycle uint64
	for c := 0; c < oracleCycles; c++ {
		stim := rng.Uint64()
		if _, err := a.poke(root, sess, stim); err != nil {
			return "", err
		}
		cycle++
		if _, err := a.step(root, sess, 1, cycle); err != nil {
			return "", err
		}
		if err := golden.PokeInputUint(stimPort, stim); err != nil {
			return "", err
		}
		golden.Step()
		if err := eng.PokeInput(stimPort, stim); err != nil {
			return "", err
		}
		eng.Run(1)
		for _, name := range outputs {
			got, _, err := a.peek(root, sess, name, false)
			if err != nil {
				return "", err
			}
			want, err := golden.PeekOutput(name)
			if err != nil {
				return "", err
			}
			if got != want.Uint64() {
				a.mismatch("cycle %d output %s: %#x, reference %#x", cycle, name, got, want.Uint64())
			}
		}
		for _, name := range regs {
			got, _, err := a.peek(root, sess, name, true)
			if err != nil {
				return "", err
			}
			want, err := golden.PeekReg(name)
			if err != nil {
				return "", err
			}
			if got != want.Uint64() {
				a.mismatch("cycle %d register %s: %#x, reference %#x", cycle, name, got, want.Uint64())
			}
		}
	}
	const chunk = 1000
	for i := 0; i < oracleHashChunks; i++ {
		stim := rng.Uint64()
		if _, err := a.poke(root, sess, stim); err != nil {
			return "", err
		}
		cycle += chunk
		if _, err := a.step(root, sess, chunk, cycle); err != nil {
			return "", err
		}
		if err := eng.PokeInput(stimPort, stim); err != nil {
			return "", err
		}
		eng.Run(chunk)
	}
	cp, _, err := a.checkpoint(root, sess)
	if err != nil {
		return "", err
	}
	if want := fmt.Sprintf("%016x", eng.StateHash()); cp.StateHash != want {
		a.mismatch("state_hash after %d cycles: %s, in-process engine %s", cycle, cp.StateHash, want)
	}
	_, err = a.close(root, sess)
	return cp.StateHash, err
}
