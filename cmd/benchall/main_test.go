package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test run the command in a child process: the test
// binary re-executes itself with BENCHALL_MAIN set and becomes benchall.
func TestMain(m *testing.M) {
	if os.Getenv("BENCHALL_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// The quick suite runs to completion, passes its spot check, and writes
// every table as text and CSV.
func TestQuickSuiteWritesTables(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick suite (several seconds)")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-out", dir)
	cmd.Env = append(os.Environ(), "BENCHALL_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatal(err)
		}
		t.Fatalf("benchall -out: exit %d, stderr %q", exit.ExitCode(), errb.String())
	}
	if want := "serial and RepCut(4 threads) agree"; !strings.Contains(out.String(), want) {
		t.Errorf("stdout lacks %q:\n%s", want, out.String())
	}
	tables := []string{
		"verify", "table1", "fig6_replication", "fig7_speedup", "fig8_peak", "fig9_khz",
		"fig13_efficiency", "fig2_profiles", "fig10_compiler", "fig11_numa", "fig12_phases",
		"fig14_imbalance", "table3",
	}
	for _, name := range tables {
		for _, ext := range []string{".txt", ".csv"} {
			if fi, err := os.Stat(filepath.Join(dir, name+ext)); err != nil || fi.Size() == 0 {
				t.Errorf("%s%s not written (%v)", name, ext, err)
			}
		}
	}
	if files, _ := os.ReadDir(dir); len(files) != 2*len(tables) {
		t.Errorf("%d files written, want %d", len(files), 2*len(tables))
	}
}
