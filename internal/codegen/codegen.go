// Package codegen compiles a linked program's per-thread instruction
// streams to native code: each stream is emitted as straight-line Go
// source over the engine's flat unified state slice (constants inlined,
// every op on native uint64 — values wider than 64 bits are already
// word-level code — and memory writes calling back into the engine), built
// out of process with `go build -buildmode=plugin`,
// and loaded as drop-in sim.NativeThreadFunc kernels — the compiled-
// simulation backend the RepCut paper gets from emitting C++ per
// partition.
//
// Built artifacts are content-addressed in an on-disk Store keyed by
// program fingerprint + emitter version + toolchain version (+ GOOS/GOARCH
// and the race flag, which must match the host binary for the plugin to
// load), with singleflight build dedup, byte-budget LRU eviction, and
// corrupted-artifact recovery. The printed text is checked by running it:
// native against linked state hashes in the tests and the CI smoke, the
// difftest oracle column with its planted mutants, and the pinned source
// hashes of TestEmitGolden.
//
// Platforms without plugin support (or hosts built with CGO disabled)
// fail Supported(); callers fall back to the linked interpreter.
package codegen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"

	"repro/internal/sim"
)

// EmitterVersion names the generation scheme and is part of every artifact
// key: bump it whenever emitted code could change for the same program.
const EmitterVersion = "cg3"

// Bug selects a deliberately planted emitter defect, used by the difftest
// mutation suite to prove the codegen oracle column live. A planted bug
// changes only the printed text, so only differential execution can catch
// it.
type Bug int

const (
	// BugNone is production behavior.
	BugNone Bug = iota
	// BugDropMask omits the result-mask AND on one maskable narrow op
	// (the scan pass picks the site where the lost mask is most
	// observable) — the classic width-truncation miscompile. On circuits
	// whose masks are all redundant (slot values stay canonical) the
	// defect can be dynamically latent; BugCmpInvert never is.
	BugDropMask
	// BugCmpInvert negates the first emitted comparison condition — a
	// wrong cmpTok mapping. Unlike a dropped mask this flips the result
	// of every evaluation of the site, so a live circuit diverges almost
	// immediately; the difftest mutation column uses it to prove the
	// codegen oracle can actually fail.
	BugCmpInvert
)

// EmitOptions configure one emission.
type EmitOptions struct {
	Bug Bug
}

// Key content-addresses the native artifact for a program under these
// emit options. Everything that can change the built bytes or their
// loadability is included: the program fingerprint, the emitter scheme,
// the exact toolchain, the target platform, whether the host (and so the
// plugin) is race-instrumented, and any planted bug.
func Key(p *sim.Program, o EmitOptions) string {
	h := sha256.New()
	fmt.Fprintf(h, "fp=%016x|emitter=%s|go=%s|os=%s|arch=%s|race=%v|bug=%d",
		p.Fingerprint(), EmitterVersion, runtime.Version(), runtime.GOOS, runtime.GOARCH,
		raceEnabled, o.Bug)
	return hex.EncodeToString(h.Sum(nil))[:24]
}
