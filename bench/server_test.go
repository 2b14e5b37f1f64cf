package main

import (
	"os"
	"testing"
)

var sink int

func TestParseSchedstat(t *testing.T) {
	got, err := parseSchedstat("1234567890 42 17\n")
	if err != nil {
		t.Fatal(err)
	}
	if got != 1234567890 {
		t.Errorf("run time = %d ns, want 1234567890", got)
	}
	for _, bad := range []string{"", "12 34", "x 1 2", "-5 1 2", "1 2 3 4"} {
		if _, err := parseSchedstat(bad); err == nil {
			t.Errorf("parseSchedstat(%q) accepted malformed input", bad)
		}
	}
}

func TestParseStatusKB(t *testing.T) {
	status := "Name:\trepcutd\nVmPeak:\t 1234567 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   10240 kB\n"
	got, err := parseStatusKB(status, "VmHWM")
	if err != nil {
		t.Fatal(err)
	}
	if got != 20480 {
		t.Errorf("VmHWM = %v kB, want 20480", got)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("missing key accepted")
	}
	if _, err := parseStatusKB("VmHWM:\t12 MB\n", "VmHWM"); err == nil {
		t.Error("wrong unit accepted")
	}
}

// The parsers must agree with the kernel's real files.
func TestProcSelf(t *testing.T) {
	if _, err := os.Stat("/proc/self/schedstat"); err != nil {
		t.Skip("no /proc scheduler statistics here")
	}
	before, err := cpuSeconds(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	for x, i := 0, 0; i < 20_000_000; i++ {
		x += i
		sink = x
	}
	if after, err := cpuSeconds(os.Getpid()); err != nil || after <= before {
		t.Errorf("CPU time went from %v to %v (err %v) over a busy loop", before, after, err)
	}
	if mb, err := peakRSSMB(os.Getpid()); err != nil || mb <= 0 {
		t.Errorf("peak RSS = %v MiB, err %v", mb, err)
	}
}
