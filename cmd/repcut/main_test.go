package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/service"
)

// TestMain lets the tests run the command in a child process: the test
// binary re-executes itself with REPCUT_MAIN set and becomes repcut.
func TestMain(m *testing.M) {
	if os.Getenv("REPCUT_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runRepcut(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "REPCUT_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.String(), errb.String(), code
}

// tinySrc is an 8-bit counter: its state moves every cycle without any
// input, so two runs agree on the state hash only if both count.
const tinySrc = `
circuit Tiny {
  module Tiny {
    input  in  : UInt<8>
    output out : UInt<8>
    reg r : UInt<8> init 0
    r <= tail(add(r, UInt<8>(3)), 1)
    out <= xor(r, in)
  }
}
`

func tinyFile(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tiny.fir")
	if err := os.WriteFile(path, []byte(tinySrc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// -backend takes linked or native; anything else, including the removed
// interp executor, exits 1 naming the survivors.
func TestBackendFlag(t *testing.T) {
	stdout, stderr, code := runRepcut(t, "-file", tinyFile(t), "-threads", "1", "-backend", "interp")
	want := `unknown backend "interp" (want linked, native)`
	if code != 1 || !strings.Contains(stderr, want) || strings.Contains(stderr, "goroutine") {
		t.Fatalf("-backend interp: exit %d, stdout %q, stderr %q; want exit 1 with %q", code, stdout, stderr, want)
	}
}

// -backend native reports the engine the run actually used, native exactly
// when the platform can build plugins, and ends in the linked run's state.
func TestNativeMatchesLinked(t *testing.T) {
	file := tinyFile(t)
	run := func(args ...string) (backend, hash string) {
		t.Helper()
		args = append([]string{"-file", file, "-threads", "1", "-cycles", "50", "-json"}, args...)
		stdout, stderr, code := runRepcut(t, args...)
		if code != 0 {
			t.Fatalf("repcut %v: exit %d: %s", args, code, stderr)
		}
		var out struct {
			Run struct {
				Backend   string `json:"backend"`
				StateHash string `json:"state_hash"`
			} `json:"run"`
		}
		if err := json.Unmarshal([]byte(stdout), &out); err != nil {
			t.Fatalf("repcut %v: %v\n%s", args, err, stdout)
		}
		return out.Run.Backend, out.Run.StateHash
	}
	lb, lh := run()
	nb, nh := run("-backend", "native", "-artifacts", t.TempDir())
	if lb != "linked" {
		t.Errorf("default run.backend = %q, want linked", lb)
	}
	want := "native"
	if err := codegen.Supported(); err != nil {
		want = "linked"
	}
	if nb != want {
		t.Errorf("-backend native: run.backend = %q, want %q (codegen.Supported: %v)", nb, want, codegen.Supported())
	}
	if lh == "" || nh != lh {
		t.Errorf("state hash: native %q, linked %q", nh, lh)
	}
}

// -json reports exactly what service.Compile reports for the request the
// flags spell, for a built-in design and for a file; a file's report names
// its circuit.
func TestJSONReportMatchesCompile(t *testing.T) {
	file := tinyFile(t)
	for _, tc := range []struct {
		args []string
		req  service.CompileRequest
	}{
		{[]string{"-design", "RocketChip-1C", "-scale", "0.25", "-threads", "2", "-seed", "3"},
			service.CompileRequest{Design: "RocketChip-1C", Scale: 0.25, Threads: 2, Seed: 3}},
		{[]string{"-file", file, "-threads", "1"},
			service.CompileRequest{Source: tinySrc, Threads: 1}},
	} {
		args := append(tc.args, "-cycles", "10", "-json")
		stdout, stderr, code := runRepcut(t, args...)
		if code != 0 {
			t.Fatalf("repcut %v: exit %d: %s", args, code, stderr)
		}
		e, err := service.Compile(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := json.Marshal(e.Report())
		if err != nil {
			t.Fatal(err)
		}
		var got, want map[string]json.RawMessage
		if err := json.Unmarshal([]byte(stdout), &got); err != nil {
			t.Fatalf("repcut %v: %v\n%s", args, err, stdout)
		}
		if err := json.Unmarshal(enc, &want); err != nil {
			t.Fatal(err)
		}
		for field, w := range want {
			if field == "outputs" {
				continue // the CLI's "outputs" holds the run's output values instead
			}
			var g, wc bytes.Buffer
			if err := json.Compact(&g, got[field]); err != nil {
				t.Errorf("repcut %v: field %q: %v", args, field, err)
				continue
			}
			if err := json.Compact(&wc, w); err != nil {
				t.Fatal(err)
			}
			if g.String() != wc.String() {
				t.Errorf("repcut %v: %q = %s, service.Compile reports %s", args, field, g.String(), wc.String())
			}
		}
	}
}

// The design comes from exactly one of -design and -file, and an unreadable
// file exits 1.
func TestDesignFlags(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-design", "RocketChip-1C", "-file", tinyFile(t)},
		{"-file", filepath.Join(t.TempDir(), "missing.fir")},
	} {
		stdout, stderr, code := runRepcut(t, args...)
		if code != 1 || !strings.HasPrefix(stderr, "repcut: ") || stdout != "" {
			t.Errorf("repcut %v: exit %d, stdout %q, stderr %q; want exit 1 with an error", args, code, stdout, stderr)
		}
	}
}
