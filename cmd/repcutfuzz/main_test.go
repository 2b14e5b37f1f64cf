package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"regexp"
	"testing"
)

// TestMain lets the tests run the command in a child process: the test
// binary re-executes itself with REPCUTFUZZ_MAIN set and becomes
// repcutfuzz.
func TestMain(m *testing.M) {
	if os.Getenv("REPCUTFUZZ_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// A clean sweep exits 0, reports every seed it ran and no crasher, and
// writes nothing to the crasher directory.
func TestCleanSweep(t *testing.T) {
	out := t.TempDir()
	cmd := exec.Command(os.Args[0], "-seeds", "3", "-budget", "0", "-size", "30", "-cycles", "5", "-out", out)
	cmd.Env = append(os.Environ(), "REPCUTFUZZ_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			t.Fatalf("exit %d; stdout:\n%s\nstderr:\n%s", exit.ExitCode(), stdout.String(), stderr.String())
		}
		t.Fatal(err)
	}
	if !regexp.MustCompile(`(?m)^3 seeds in \S+: 0 crasher\(s\)$`).Match(stdout.Bytes()) {
		t.Fatalf("stdout does not report 3 clean seeds:\n%s", stdout.String())
	}
	if entries, err := os.ReadDir(out); err != nil || len(entries) != 0 {
		t.Fatalf("crasher directory holds %d entries (%v); want none", len(entries), err)
	}
}
