package codegen

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
)

// Out-of-process plugin builds. The generated source becomes a standalone
// one-file main module (std-only imports), compiled with the same
// toolchain that built this binary:
//
//	go build -buildmode=plugin -o <out>.so .
//
// The module path is repcutkernel/<key>, which makes the plugin's
// identity follow the content address with no extra flags: the go command
// derives both the runtime pluginpath and the exported symbol prefix
// (repcutkernel/<key>.Threads) from it, so the same key always maps to
// the same plugin and distinct keys can never collide. Overriding
// -ldflags=-pluginpath instead does NOT work — it renames the runtime
// identity but not the compiled symbol prefix, and every Lookup fails.
//
// No -trimpath: the host binary is built without it, and plugin.Open
// insists every shared std package hash match exactly — a plugin-only
// -trimpath recompiles std with different build IDs and the load fails
// with "plugin was built with a different version of package ...".
//
// The explicit pluginpath makes the runtime's plugin identity follow the
// content address: the same key always maps to the same (identical)
// plugin, distinct keys can never collide. -race is appended when the host
// is race-instrumented (race_on.go): host and plugin must agree on race
// mode or plugin.Open rejects the std-package build mismatch.

// pluginPathID sanitizes a key for use inside -pluginpath. The linker
// percent-escapes characters like '.' in exported symbol names
// (Fingerprint becomes ...go1%2e24%2e0....Fingerprint) but plugin.Open
// looks symbols up under the raw pluginpath, so any escapable character
// makes every Lookup fail. Artifact keys are lowercase hex and pass
// through; probe keys carry toolchain versions with dots.
func pluginPathID(key string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '-'
	}, key)
}

// goTool locates the go command, preferring PATH and falling back to the
// running toolchain's GOROOT.
func goTool() (string, error) {
	if p, err := exec.LookPath("go"); err == nil {
		return p, nil
	}
	p := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(p); err != nil {
		return "", fmt.Errorf("codegen: go tool not found in PATH or GOROOT: %w", err)
	}
	return p, nil
}

// buildPlugin writes the module (go.mod + main.go) into dir and compiles
// it to outSo. dir must exist and be private to this build.
func buildPlugin(ctx context.Context, dir string, src []byte, outSo, key string) error {
	gomod := "module repcutkernel/" + pluginPathID(key) + "\n\ngo 1.21\n"
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte(gomod), 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "main.go"), src, 0o644); err != nil {
		return err
	}
	gobin, err := goTool()
	if err != nil {
		return err
	}
	args := []string{"build", "-buildmode=plugin"}
	if raceEnabled {
		args = append(args, "-race")
	}
	args = append(args, "-o", outSo, ".")
	cmd := exec.CommandContext(ctx, gobin, args...)
	cmd.Dir = dir
	// Neutralize ambient build configuration: no workspace, no flag
	// injection, cgo on (plugin buildmode needs external linking).
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=", "CGO_ENABLED=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		msg := strings.TrimSpace(string(out))
		if len(msg) > 2000 {
			msg = msg[:2000] + " ..."
		}
		return fmt.Errorf("codegen: plugin build failed: %v: %s", err, msg)
	}
	return nil
}

// probeSrc is a minimal kernel used to decide once per process whether
// plugin building and loading work here at all (linux/amd64 with cgo: yes;
// windows or a static host binary: no).
const probeSrc = `package main

var Fingerprint uint64 = 1

var Emitter = "` + EmitterVersion + `"

var Threads = []func(st []uint64, mems [][]uint64, memwr func(uint32, uint64, uint64)){
	func(st []uint64, mems [][]uint64, memwr func(uint32, uint64, uint64)) { st[0]++ },
}

func main() {}
`

var (
	probeOnce sync.Once
	probeErr  error
)

// Supported reports whether native codegen works in this environment by
// building and loading a one-op probe kernel once per process. The probe
// artifact is cached on disk under the default base dir (keyed like any
// artifact by toolchain and race mode), so warm processes pay one
// plugin.Open, not a compile.
func Supported() error {
	probeOnce.Do(func() { probeErr = runProbe() })
	return probeErr
}

func runProbe() error {
	key := fmt.Sprintf("probe-%s-%s-%s-race%v-%s",
		EmitterVersion, runtime.Version(), runtime.GOARCH, raceEnabled, runtime.GOOS)
	dir := DefaultBaseDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("codegen: %w", err)
	}
	so := filepath.Join(dir, key+".so")
	if _, err := os.Stat(so); err != nil {
		tmp, err := os.MkdirTemp(dir, "tmp-probe-")
		if err != nil {
			return fmt.Errorf("codegen: %w", err)
		}
		defer os.RemoveAll(tmp)
		built := filepath.Join(tmp, "probe.so")
		if err := buildPlugin(context.Background(), tmp, []byte(probeSrc), built, key); err != nil {
			return err
		}
		// Atomic publish; a concurrent process racing us installs identical
		// bytes, so either rename winning is fine.
		if err := os.Rename(built, so); err != nil {
			return fmt.Errorf("codegen: %w", err)
		}
	}
	k, err := loadKernel(key, so, 1)
	if err != nil {
		// A stale or corrupt cached probe must not condemn the platform:
		// rebuild once from scratch.
		os.Remove(so)
		tmp, terr := os.MkdirTemp(dir, "tmp-probe-")
		if terr != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		built := filepath.Join(tmp, "probe.so")
		if berr := buildPlugin(context.Background(), tmp, []byte(probeSrc), built, key); berr != nil {
			return berr
		}
		if rerr := os.Rename(built, so); rerr != nil {
			return err
		}
		if k, err = loadKernel(key, so, 1); err != nil {
			return err
		}
	}
	st := []uint64{41}
	k.Threads[0](st, nil, nil)
	if st[0] != 42 {
		return fmt.Errorf("codegen: probe kernel computed %d, want 42", st[0])
	}
	return nil
}

// DefaultBaseDir is where probe artifacts and the default Store live when
// the caller does not name a directory: per-user under the system temp
// dir, so repeated runs share warm artifacts.
func DefaultBaseDir() string {
	return filepath.Join(os.TempDir(), fmt.Sprintf("repcut-codegen-%d", os.Getuid()))
}
