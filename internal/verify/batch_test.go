package verify

// Batch-layout tests prove scanBatch is live: clean compiles of every
// shape pass with an explicit lane-disjointness conclusion, and planted
// layout corruptions — the exact faults a broken linker or a stale cached
// linked form would produce — are each rejected with provenance. The
// mutants run with zero Options, as every production caller does: the
// layout proof is not opt-in, and a corrupt layout must be reported, not
// indexed by the stream scan's per-region tables (which would panic).

import (
	"strings"
	"testing"
)

// findBatchInfo returns the concluding Info diagnostic of the batch scan.
func findBatchInfo(t *testing.T, rep *Report) Diag {
	t.Helper()
	for _, d := range rep.Diags {
		if d.Check == CheckBatch && d.Severity == Info {
			return d
		}
	}
	t.Fatalf("no batch-layout info diagnostic; report:\n%s", rep.String())
	return Diag{}
}

// TestBatchCleanPrograms proves the batch-layout contract on correct
// compiler output across thread counts and optimization levels.
func TestBatchCleanPrograms(t *testing.T) {
	g := mustGraph(t, memMixSrc)
	for _, k := range []int{1, 2} {
		for _, opt := range []int{0, 2} {
			p, parts := compileParts(t, g, k, opt)
			rep := Program(p, Options{Graph: g, Parts: parts})
			requireClean(t, rep, "batch")
			info := findBatchInfo(t, rep)
			if !strings.Contains(info.Msg, "proven lane-disjoint") {
				t.Fatalf("k=%d O%d: unexpected conclusion: %s", k, opt, info)
			}
		}
	}
}

// TestFullVerificationStack runs every check family at once — layout and
// linked-stream scans, batch layout, and translation validation —
// the way a `repcut -validate` compile of a batch-served design would.
func TestFullVerificationStack(t *testing.T) {
	g := mustGraph(t, memMixSrc)
	p, parts := compileParts(t, g, 2, 2)
	rep := Program(p, Options{Graph: g, Parts: parts, Validate: true})
	requireClean(t, rep, "full stack")
	if rep.Validation == nil || rep.Validation.Pairs == 0 {
		t.Fatalf("no validation certificate attached: %s", rep.String())
	}
	if !rep.Validation.Valid() {
		t.Fatalf("validation refuted a clean compile: %s", rep.Validation)
	}
	findBatchInfo(t, rep)
}

// Batch fault class 1 — frame overlap: a thread's temp frame is relocated
// onto the immediate region, so ResetLane's constant re-seed and the
// thread's temps would alias lane columns.
func TestBatchMutationFrameOverlap(t *testing.T) {
	g := mustGraph(t, memMixSrc)
	p, _ := compileParts(t, g, 2, 0)
	p.Threads[0].TempOff = 0 // inside the global register/input region
	rep := Program(p, Options{})
	d := findDiag(t, rep, CheckBatch)
	if !strings.Contains(d.Msg, "thread frame begins at") {
		t.Fatalf("wrong rejection: %s", d)
	}
	if d.Thread != 0 {
		t.Fatalf("fault is on thread 0, reported on %d: %s", d.Thread, d)
	}
}

// Batch fault class 2 — shadow gap: a thread's shadow region no longer
// abuts its temps, so the commit block-copy would publish the wrong words.
func TestBatchMutationShadowGap(t *testing.T) {
	g := mustGraph(t, memMixSrc)
	p, _ := compileParts(t, g, 2, 0)
	p.Threads[1].ShadowOff++
	rep := Program(p, Options{})
	d := findDiag(t, rep, CheckBatch)
	if !strings.Contains(d.Msg, "does not abut") {
		t.Fatalf("wrong rejection: %s", d)
	}
	if d.Thread != 1 {
		t.Fatalf("fault is on thread 1, reported on %d: %s", d.Thread, d)
	}
}

// Batch fault class 3 — truncated allocation: the state array is shorter
// than the regions it must hold, so the last lane column runs off the end.
func TestBatchMutationTruncatedState(t *testing.T) {
	g := mustGraph(t, memMixSrc)
	p, _ := compileParts(t, g, 2, 0)
	last := &p.Threads[len(p.Threads)-1]
	p.StateWords = int(last.ShadowOff) // chops off the last shadow region
	rep := Program(p, Options{})
	d := findDiag(t, rep, CheckBatch)
	if !strings.Contains(d.Msg, "runs off the array") {
		t.Fatalf("wrong rejection: %s", d)
	}
}
