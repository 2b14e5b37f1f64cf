package main

import (
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	repcut "repro"
	"repro/internal/service"
)

// accSrc is a small open design: a real input feeding state, so the trace
// poked over the wire decides what the outputs read.
const accSrc = `
circuit Acc {
  module Acc {
    input  in  : UInt<16>
    output out : UInt<16>
    output mix : UInt<16>
    reg acc : UInt<16> init 0
    reg lfsr : UInt<16> init 1
    acc <= tail(add(acc, in), 1)
    lfsr <= xor(tail(add(lfsr, lfsr), 1), acc)
    out <= acc
    mix <= xor(acc, lfsr)
  }
}
`

// countingTransport counts the HTTP requests a client sends.
type countingTransport struct{ n atomic.Int64 }

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return http.DefaultTransport.RoundTrip(r)
}

// TestDaemonBlackBox builds the real repcutd binary, boots it on an
// ephemeral port, drives compile → session → poke/run/peek through the
// public client against an in-process reference, then sends SIGTERM with
// the session still open and requires a clean exit inside the shutdown
// budget: flag parsing, listen/portfile, signal handling and graceful
// shutdown are all code no other test reaches.
func TestDaemonBlackBox(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("no SIGTERM on windows")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "repcutd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// A lane count no group can hold, or one below the break-even, is
	// refused before listening.
	out, err := exec.Command(bin, "-addr", "127.0.0.1:0", "-batch-lanes", "17").CombinedOutput()
	if err == nil || !strings.Contains(string(out), "at most 16 sessions") {
		t.Fatalf("-batch-lanes 17: err %v, output %q; want a non-zero exit naming the 16-lane limit", err, out)
	}
	out, err = exec.Command(bin, "-addr", "127.0.0.1:0", "-batch-lanes", "3").CombinedOutput()
	if err == nil || !strings.Contains(string(out), fmt.Sprintf("only pays from %d sessions", service.MinLaneGroup)) {
		t.Fatalf("-batch-lanes 3: err %v, output %q; want a non-zero exit naming the break-even", err, out)
	}

	portFile := filepath.Join(dir, "port")
	logFile, err := os.Create(filepath.Join(dir, "log"))
	if err != nil {
		t.Fatal(err)
	}
	defer logFile.Close()
	logs := func() string {
		b, _ := os.ReadFile(logFile.Name())
		return string(b)
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-portfile", portFile, "-quiet")
	cmd.Stdout, cmd.Stderr = logFile, logFile
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	running := true
	t.Cleanup(func() {
		if running {
			cmd.Process.Kill()
			<-exited
		}
	})

	var client *service.Client
	rt := &countingTransport{}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if addr, _ := os.ReadFile(portFile); len(addr) > 0 {
			client = &service.Client{BaseURL: "http://" + string(addr), HTTP: &http.Client{Transport: rt}}
			if client.Health() == nil {
				break
			}
		}
		select {
		case err := <-exited:
			running = false
			t.Fatalf("repcutd exited before listening: %v\n%s", err, logs())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("repcutd not healthy within 10s\n%s", logs())
		}
	}

	req := service.CompileRequest{Source: accSrc, Threads: 2}
	cr, err := client.Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := client.NewSession(cr.Key)
	if err != nil {
		t.Fatal(err)
	}
	circ, err := repcut.ParseCircuit(accSrc)
	if err != nil {
		t.Fatal(err)
	}
	d, err := repcut.Elaborate(circ)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := d.CompileParallel(req.Options())
	if err != nil {
		t.Fatal(err)
	}
	for step, v := range []uint64{3, 0, 0xffff, 41} {
		if err := sess.Poke("in", v); err != nil {
			t.Fatal(err)
		}
		if err := ref.PokeInput("in", v); err != nil {
			t.Fatal(err)
		}
		n := step + 1
		cyc, err := sess.Run(n)
		if err != nil {
			t.Fatal(err)
		}
		ref.Run(n)
		if cyc != ref.Cycles() {
			t.Fatalf("step %d: daemon at cycle %d, reference at %d", step, cyc, ref.Cycles())
		}
		for _, name := range []string{"out", "mix"} {
			got, err := sess.Peek(name)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.PeekOutput(name)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("step %d: %s = %#x over the wire, %#x in process", step, name, got, want)
			}
		}
	}

	// A queued poke rides on Run(1) and the step answers with both outputs,
	// so the peeks that follow send nothing and read the reference's values.
	if err := sess.Poke("in", 0x0f0f); err != nil {
		t.Fatal(err)
	}
	if err := ref.PokeInput("in", 0x0f0f); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(1); err != nil {
		t.Fatal(err)
	}
	ref.Run(1)
	before := rt.n.Load()
	for _, name := range []string{"out", "mix"} {
		got, err := sess.Peek(name)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.PeekOutput(name)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("carried %s = %#x, %#x in process", name, got, want)
		}
	}
	if n := rt.n.Load() - before; n != 0 {
		t.Fatalf("Peek after Run(1) sent %d requests, want 0 (carried on the step)", n)
	}
	m, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Sim.StepsWithOutputs == 0 {
		t.Fatal("steps_with_outputs = 0 after steps that carried outputs")
	}

	// Two pokes queue on the handle and ride on the run; the checkpoint
	// must show the state of an engine poked directly.
	for _, v := range []uint64{0x1234, 0x00ff} {
		if err := sess.Poke("in", v); err != nil {
			t.Fatal(err)
		}
		if err := ref.PokeInput("in", v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.Run(3); err != nil {
		t.Fatal(err)
	}
	ref.Run(3)
	cp, err := sess.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("%016x", ref.StateHash()); cp.StateHash != want || cp.Cycle != ref.Cycles() {
		t.Fatalf("checkpoint after queued pokes: %s@%d over the wire, %s@%d in process", cp.StateHash, cp.Cycle, want, ref.Cycles())
	}

	// The session stays open: shutdown has to close it.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		running = false
		if err != nil {
			t.Fatalf("repcutd exit after SIGTERM: %v\n%s", err, logs())
		}
	case <-time.After(15 * time.Second): // serve's shutdown budget
		t.Fatalf("repcutd still running 15s after SIGTERM\n%s", logs())
	}
}
