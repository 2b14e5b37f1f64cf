package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/service"
)

// server is one spawned repcutd process.
type server struct {
	cmd  *exec.Cmd
	dir  string // private scratch: port file, native artifact store
	base string // http://host:port
	logs *bytes.Buffer
}

// startServer spawns the real repcutd binary on an ephemeral port with
// default flags (plus -codegen for the native workload) and returns once it
// is listening. dir must be fresh: its emptiness is what makes the native
// artifact store cold.
func startServer(bin, dir string, codegen bool) (*server, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	portFile := filepath.Join(dir, "port")
	args := []string{"-addr", "127.0.0.1:0", "-portfile", portFile, "-quiet"}
	if codegen {
		args = append(args, "-codegen", "-codegen-dir", filepath.Join(dir, "artifacts"))
	}
	s := &server{cmd: exec.Command(bin, args...), dir: dir, logs: &bytes.Buffer{}}
	s.cmd.Stderr = s.logs
	// If the benchmark itself is killed, repcutd must not outlive it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawn repcutd: %w", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(portFile); err == nil && len(b) > 0 {
			s.base = "http://" + strings.TrimSpace(string(b))
			return s, nil
		}
		if time.Now().After(deadline) {
			_ = s.stop()
			return nil, fmt.Errorf("repcutd did not listen within 30s: %s", s.logs)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop asks repcutd to shut down, waits for it to exit (killing it if it
// ignores the request), and removes its scratch directory.
func (s *server) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		err = <-done
	}
	if rmErr := os.RemoveAll(s.dir); err == nil {
		err = rmErr
	}
	return err
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// newHTTPClient caps the load generator at conns connections to the server,
// the number of cores here: the benchmark never offers more parallelism
// than the host can serve.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
		},
	}
}

func (s *server) client(hc *http.Client) *service.Client {
	return &service.Client{BaseURL: s.base, HTTP: hc}
}

// parseSchedstat extracts the on-CPU nanoseconds from the text of a
// /proc/<pid>/task/<tid>/schedstat: "<run ns> <wait ns> <timeslices>".
func parseSchedstat(text string) (uint64, error) {
	f := strings.Fields(text)
	if len(f) != 3 {
		return 0, fmt.Errorf("proc schedstat: %d fields in %q, want 3", len(f), text)
	}
	ns, err := strconv.ParseUint(f[0], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc schedstat: run time: %w", err)
	}
	return ns, nil
}

// parseStatusKB extracts a "Key:   <n> kB" line from the text of
// /proc/<pid>/status.
func parseStatusKB(status, key string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed %s line %q", key, line)
		}
		return strconv.ParseFloat(f[0], 64)
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}

// cpuSeconds is the CPU time, user and system, that a process's threads have
// used so far. It sums the scheduler's nanosecond counters per thread:
// /proc/<pid>/stat counts in 10 ms ticks, which is several percent of the
// sub-second blocks cpu_s_per_mcycle is taken over and made whole runs read
// identically.
func cpuSeconds(pid int) (float64, error) {
	tasks := fmt.Sprintf("/proc/%d/task", pid)
	entries, err := os.ReadDir(tasks)
	if err != nil {
		return 0, err
	}
	var ns uint64
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(tasks, e.Name(), "schedstat"))
		if errors.Is(err, os.ErrNotExist) {
			continue // the thread exited since ReadDir
		}
		if err != nil {
			return 0, err
		}
		n, err := parseSchedstat(string(b))
		if err != nil {
			return 0, err
		}
		ns += n
	}
	return float64(ns) / 1e9, nil
}

// peakRSSMB is the process's resident-set high-water mark in MiB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(string(b), "VmHWM")
	return kb / 1024, err
}

// cpuMeter samples a process's CPU time against the simulated cycles it has
// delivered, at moments the workload chooses.
type cpuMeter struct {
	pid    int
	cpu    []float64 // seconds
	cycles []uint64
}

func (m *cpuMeter) sample(cycles uint64) error {
	cpu, err := cpuSeconds(m.pid)
	if err != nil {
		return err
	}
	m.cpu, m.cycles = append(m.cpu, cpu), append(m.cycles, cycles)
	return nil
}

// total is the CPU time between the first and the last sample.
func (m *cpuMeter) total() float64 { return m.cpu[len(m.cpu)-1] - m.cpu[0] }

// perMcycle returns CPU seconds per million cycles for each whole block of
// stride consecutive sample intervals.
func (m *cpuMeter) perMcycle(stride int) []float64 {
	var out []float64
	for i := 0; i+stride < len(m.cpu); i += stride {
		out = append(out, (m.cpu[i+stride]-m.cpu[i])/(float64(m.cycles[i+stride]-m.cycles[i])/1e6))
	}
	return out
}
