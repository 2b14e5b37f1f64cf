package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/firrtl"
)

// TestMain lets the tests run the command in a child process: the test
// binary re-executes itself with DESIGNGEN_MAIN set and becomes designgen.
func TestMain(m *testing.M) {
	if os.Getenv("DESIGNGEN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func designgen(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DESIGNGEN_MAIN=1")
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

// Design names resolve through designs.ParseName, as in repcut -design: an
// unknown family or a zero core count is an error, not a panic or a
// silently different design.
func TestDesignNames(t *testing.T) {
	for name, want := range map[string]string{
		"Foo-2C":        `designs: unknown design family "Foo"`,
		"RocketChip-0C": `designs: bad core count in "RocketChip-0C"`,
	} {
		stdout, stderr, code := designgen(t, "-design", name)
		if code != 1 || stdout != "" || !strings.Contains(stderr, want) || strings.Contains(stderr, "goroutine") {
			t.Errorf("-design %s: exit %d, stdout %d bytes, stderr %q; want exit 1 with %q", name, code, len(stdout), stderr, want)
		}
	}
	stdout, stderr, code := designgen(t, "-design", "RocketChip-1C")
	if code != 0 {
		t.Fatalf("-design RocketChip-1C: exit %d: %s", code, stderr)
	}
	c, err := firrtl.Parse(stdout)
	if err != nil {
		t.Fatalf("-design RocketChip-1C output does not parse: %v", err)
	}
	if c.Name != "RocketChip_1C" {
		t.Errorf("circuit %q, want RocketChip_1C", c.Name)
	}
}
