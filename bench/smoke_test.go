package main

import (
	"io"
	"log/slog"
	"net/http/httptest"
	"os"
	"testing"

	"repro/internal/service"
)

// A tiny run-* workload against an in-process server: the generated text
// compiles over HTTP, the oracle agrees with sim.Reference, the window does
// its fixed work, and the traced half records spans.
func TestSmokeInProcess(t *testing.T) {
	srv := service.New(service.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	w := workload{name: "smoke", kind: kindRun, cfg: rocket, threads: 2, cycles: 50}
	text, err := designText(w.cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	a := &api{cl: &service.Client{BaseURL: ts.URL, HTTP: newHTTPClient(lockstepClients)}, tr: tr}
	resp, _, err := a.compile(0, w.request(text))
	if err != nil {
		t.Fatal(err)
	}
	lv := &live{a: a, key: resp.Key, text: text}
	ref, err := newReference(text)
	if err != nil {
		t.Fatal(err)
	}
	hash, err := ref.check(a, tr, lv.key, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if other, err := ref.check(a, tr, lv.key, true, 2); err != nil || other == hash {
		t.Errorf("another seed must poke another state: %s then %s (err %v)", hash, other, err)
	}

	r := &runner{seed: 1, seconds: 1}
	res := &runResult{}
	meter := &cpuMeter{pid: os.Getpid()}
	if err := meter.sample(0); err != nil {
		t.Fatal(err)
	}
	if err := r.runWindow(lv, w, tr, meter, res); err != nil {
		t.Fatal(err)
	}
	if got, want := meter.cycles[len(meter.cycles)-1], uint64(minSegments*w.cycles); got != want {
		t.Errorf("window stepped %d cycles, want %d", got, want)
	}
	if blocks := meter.perMcycle(runCPUBlock); len(blocks) != minSegments/runCPUBlock {
		t.Errorf("%d CPU blocks, want %d", len(blocks), minSegments/runCPUBlock)
	}
	if len(res.segRates) != minSegments || len(res.tracedRates) != minSegments/2 || res.finalHash == "" {
		t.Errorf("window recorded %d segments (%d traced), hash %q", len(res.segRates), len(res.tracedRates), res.finalHash)
	}
	if got := tr.spansNamed("bench.segment"); got != minSegments/2 {
		t.Errorf("%d segment spans, want %d (every other segment is traced)", got, minSegments/2)
	}
	if f := a.failed.Load(); f != 0 {
		t.Errorf("%d of %d operations failed", f, a.attempted.Load())
	}
}
