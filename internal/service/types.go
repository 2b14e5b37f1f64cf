// Package service turns the Design→Partition→Compile→Simulate pipeline
// into a long-running concurrent server: a content-addressed compile cache
// (LRU by resident program bytes, singleflight dedup), a session manager
// for stateful simulations with admission control and idle reaping, an
// observability surface (/healthz, /metrics, structured request logs) and
// a Go client. Everything is pure stdlib net/http + encoding/json.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	repcut "repro"
	"repro/internal/cgraph"
	"repro/internal/hypergraph"
	"repro/internal/sim"
	"repro/internal/verify"
)

// CompileRequest names a design and the partition options to compile it
// with. Exactly one of Design (a built-in name, e.g. "SmallBOOM-2C") or
// Source (textual IR) must be set. The same struct parameterizes the CLI
// and the HTTP API.
type CompileRequest struct {
	Design string  `json:"design,omitempty"`
	Scale  float64 `json:"scale,omitempty"`
	Source string  `json:"source,omitempty"`

	Threads    int     `json:"threads,omitempty"`
	Epsilon    float64 `json:"epsilon,omitempty"`
	Seed       int64   `json:"seed,omitempty"`
	Unweighted bool    `json:"unweighted,omitempty"`
	Verify     bool    `json:"verify,omitempty"`
	// Validate runs translation validation during the compile (see
	// repcut.Options.Validate). Like Verify and Workers it is excluded from
	// the content address: validation checks the artifact, it never changes
	// it, so validated and unvalidated compiles of one design share a key.
	Validate bool `json:"validate,omitempty"`
}

// normalize applies the same defaults repcut.Options does, so requests
// that spell a default explicitly and requests that omit it hash alike. A
// non-positive Scale reads as 1, as designs.BuildCircuit does; a
// non-positive or default Epsilon reads as omitted, and at one thread,
// where nothing is partitioned, so do Epsilon, Seed and Unweighted: every
// request for one program gets one key.
func (r CompileRequest) normalize() CompileRequest {
	if r.Threads == 0 {
		r.Threads = 1
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.Scale <= 0 {
		r.Scale = 1
	}
	if r.Epsilon <= 0 || r.Epsilon == hypergraph.DefaultEpsilon {
		r.Epsilon = 0
	}
	if r.Threads == 1 {
		r.Epsilon, r.Seed, r.Unweighted = 0, 1, false
	}
	return r
}

// Options converts the request to partition options. Workers is a server
// policy, not part of the content address (output is bit-identical for
// every worker count), so it is supplied by the caller.
func (r CompileRequest) Options(workers int) repcut.Options {
	n := r.normalize()
	return repcut.Options{
		Threads: n.Threads, Epsilon: n.Epsilon, Seed: n.Seed,
		Unweighted: n.Unweighted, Verify: n.Verify,
		Validate: n.Validate, Workers: workers,
	}
}

// Key is the content address of the compile result: a SHA-256 over the
// design content (built-in name + scale, or the full IR source) and every
// partition option that can change the compiled program. Workers is
// deliberately excluded — compilation is bit-identical across worker
// counts — so the same design compiled on differently-sized servers
// shares one address.
func (r CompileRequest) Key() string {
	n := r.normalize()
	h := sha256.New()
	if n.Source != "" {
		fmt.Fprintf(h, "source\x00%d\x00%s\x00", len(n.Source), n.Source)
	} else {
		fmt.Fprintf(h, "builtin\x00%s\x00%g\x00", n.Design, n.Scale)
	}
	// opt=2 is the optimization level every compile runs; it stays in the
	// hashed text so addresses from before its option was removed hold.
	fmt.Fprintf(h, "k=%d e=%g s=%d uw=%t opt=2",
		n.Threads, n.Epsilon, n.Seed, n.Unweighted)
	return hex.EncodeToString(h.Sum(nil))
}

// DesignStats is the wire form of cgraph.Stats: the Table 1 statistics of
// the graph that was partitioned and compiled, which is the elaborated
// graph after its redundant-node merge. MergedVertices counts the vertices
// that merge folded away; adding it to IRNodes gives the design's size as
// written.
type DesignStats struct {
	IRNodes        int     `json:"ir_nodes"`
	Edges          int     `json:"edges"`
	SinkVertices   int     `json:"sink_vertices"`
	SinkPct        float64 `json:"sink_pct"`
	RegWrites      int     `json:"reg_writes"`
	MemWrites      int     `json:"mem_writes"`
	MergedVertices int     `json:"merged_vertices"`
}

// StatsJSON converts graph statistics to their wire form.
func StatsJSON(s cgraph.Stats) DesignStats {
	return DesignStats{
		IRNodes: s.IRNodes, Edges: s.Edges, SinkVertices: s.SinkVtx,
		SinkPct: s.SinkPct, RegWrites: s.RegWrites, MemWrites: s.MemWrites,
		MergedVertices: s.Merged,
	}
}

// PartitionSummary is the wire form of repcut.PartitionReport.
type PartitionSummary struct {
	Threads            int     `json:"threads"`
	ReplicationCost    float64 `json:"replication_cost"`
	ImbalanceExcl      float64 `json:"imbalance_excl"`
	ImbalanceIncl      float64 `json:"imbalance_incl"`
	ReplicatedVertices int     `json:"replicated_vertices"`
	PartWeights        []int64 `json:"part_weights,omitempty"`
	// CutCost is the partitioner's proxy objective Σ(λ−1)·ω (Formula 2).
	CutCost int64 `json:"cut_cost"`
	// DerepGroups/DerepRegs count applied dereplication groups and the
	// registers they demoted to the shared-read tier.
	DerepGroups int `json:"derep_groups"`
	DerepRegs   int `json:"derep_regs"`
}

// PartitionJSON converts a partition report to its wire form (nil for
// serial compilations).
func PartitionJSON(r *repcut.PartitionReport) *PartitionSummary {
	if r == nil {
		return nil
	}
	return &PartitionSummary{
		Threads: r.Threads, ReplicationCost: r.ReplicationCost,
		ImbalanceExcl: r.ImbalanceExcl, ImbalanceIncl: r.ImbalanceIncl,
		ReplicatedVertices: r.ReplicatedVertices, PartWeights: r.PartWeights,
		CutCost: r.CutCost, DerepGroups: r.DerepGroups, DerepRegs: r.DerepRegs,
	}
}

// ProgramSummary describes a compiled program without shipping its code.
type ProgramSummary struct {
	Design  string `json:"design"`
	Threads int    `json:"threads"`
	Instrs  int    `json:"instrs"`
	// LinkedInstrs is the length of the linked stream engines actually
	// run; linking is 1:1, so it equals Instrs.
	LinkedInstrs int    `json:"linked_instrs"`
	MemBytes     int64  `json:"mem_bytes"`
	StateBytes   int64  `json:"state_bytes"`
	Fingerprint  string `json:"fingerprint"`
	// ExchangeWords is, per reader thread, how many words a multi-threaded
	// engine copies in from other threads' segments each cycle.
	ExchangeWords []int `json:"exchange_words"`
}

// ProgramJSON summarizes a compiled program for the wire.
func ProgramJSON(p *sim.Program) ProgramSummary {
	lp := p.Linked()
	return ProgramSummary{
		Design: p.Design, Threads: p.NumThreads, Instrs: p.TotalInstrs(),
		LinkedInstrs: lp.Stats.Linked, MemBytes: p.MemBytes(), StateBytes: p.StateBytes(),
		Fingerprint: fmt.Sprintf("%016x", p.Fingerprint()), ExchangeWords: lp.ExchangeWords(),
	}
}

// ValidationSummary is the wire form of a translation-validation
// certificate (internal/verify/tvalid): how many slot pairs were compared,
// how each was settled, and what the proof cost.
type ValidationSummary struct {
	Pairs      int     `json:"pairs"`
	Proved     int     `json:"proved"`
	Probed     int     `json:"probed"`
	ArenaBytes int64   `json:"arena_bytes"`
	ElapsedMs  float64 `json:"elapsed_ms"`
}

// ValidationJSON extracts the validation summary from a verification
// report (nil when the compile did not validate).
func ValidationJSON(r *verify.Report) *ValidationSummary {
	if r == nil || r.Validation == nil {
		return nil
	}
	v := r.Validation
	return &ValidationSummary{
		Pairs: v.Pairs, Proved: v.Proved, Probed: v.Probed,
		ArenaBytes: v.ArenaBytes,
		ElapsedMs:  float64(v.Elapsed.Nanoseconds()) / 1e6,
	}
}

// PortInfo names one top-level port.
type PortInfo struct {
	Name  string `json:"name"`
	Width int    `json:"width"`
	Wide  bool   `json:"wide,omitempty"`
}

// PortsJSON converts a slot table to its wire form.
func PortsJSON(slots []sim.PortSlot) []PortInfo {
	out := make([]PortInfo, len(slots))
	for i, s := range slots {
		out[i] = PortInfo{Name: s.Name, Width: s.Width, Wide: s.Width > 64}
	}
	return out
}

// DesignReport is the machine-readable report shared by `repcut -json`
// and the service: the CLI emits exactly this struct, the server embeds
// it in CompileResponse, so the two can never drift.
type DesignReport struct {
	Design     string             `json:"design"`
	Stats      DesignStats        `json:"stats"`
	Partition  *PartitionSummary  `json:"partition,omitempty"`
	Program    ProgramSummary     `json:"program"`
	Validation *ValidationSummary `json:"validation,omitempty"`
	Inputs     []PortInfo         `json:"inputs"`
	Outputs    []PortInfo         `json:"outputs"`
}

// CompileResponse is returned by POST /v1/compile.
type CompileResponse struct {
	Key          string  `json:"key"`
	CacheHit     bool    `json:"cache_hit"`
	CompileMs    float64 `json:"compile_ms"`
	DesignReport         // embedded: same shape as `repcut -json`
}

// CreateSessionRequest opens a stateful simulation over a cached program.
// Solo opts out of the lane-batched execution tier, forcing a private
// engine (e.g. for latency-sensitive interactive use).
type CreateSessionRequest struct {
	Key  string `json:"key"`
	Solo bool   `json:"solo,omitempty"`
}

// SessionResponse describes a session. Batched reports whether it runs on
// a shared batch-engine lane (an execution detail — the API behaves
// identically either way).
type SessionResponse struct {
	SessionID string `json:"session_id"`
	Design    string `json:"design,omitempty"`
	Cycle     uint64 `json:"cycle"`
	Batched   bool   `json:"batched,omitempty"`
}

// PokeRequest sets a narrow (≤64-bit) input port.
type PokeRequest struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// PeekRequest reads a narrow output port (or, with Reg, a register).
type PeekRequest struct {
	Name string `json:"name"`
	Reg  bool   `json:"reg,omitempty"`
}

// ValueResponse carries one peeked value.
type ValueResponse struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// StepRequest advances the simulation by Cycles cycles (0 means 1). Pokes
// are applied in order before the step, exactly as if each had been its
// own poke request: a poke never re-evaluates, so the client may defer its
// pokes until the next step. Peek names narrow output ports to read after
// the step, each at most once; an unknown, wide or repeated name, or more
// names than the program has outputs, fails the request before any poke
// applies or any cycle runs. A request without Peek is the one that predates
// it, byte for byte.
type StepRequest struct {
	Cycles int           `json:"cycles,omitempty"`
	Pokes  []PokeRequest `json:"pokes,omitempty"`
	Peek   []string      `json:"peek,omitempty"`
}

// StepResponse reports the session's current cycle counter and, for a step
// that named outputs, their values at that cycle in the order named.
type StepResponse struct {
	Cycle   uint64          `json:"cycle"`
	Outputs []ValueResponse `json:"outputs,omitempty"`
}

// CheckpointResponse is returned by POST /v1/sessions/{id}/checkpoint: the
// session's serialized simulation state plus enough metadata to restore it
// on any server holding the same compiled fingerprint. State is the
// versioned, checksummed sim.Snapshot encoding (base64 over JSON);
// StateHash is the architectural state hash at checkpoint time, so the
// restoring side can prove bit-identical resumption.
type CheckpointResponse struct {
	SessionID   string `json:"session_id"`
	Key         string `json:"key"`
	Design      string `json:"design,omitempty"`
	Cycle       uint64 `json:"cycle"`
	Version     uint32 `json:"version"`
	Fingerprint string `json:"fingerprint"`
	StateHash   string `json:"state_hash"`
	State       []byte `json:"state"`
}

// RestoreSessionRequest opens a session resuming from a checkpoint taken on
// this server or a peer. Key must name a cached compile whose fingerprint
// matches the snapshot's.
type RestoreSessionRequest struct {
	Key   string `json:"key"`
	Solo  bool   `json:"solo,omitempty"`
	State []byte `json:"state"`
}

// ErrorResponse is the body of every non-2xx response. Peer and SessionID
// carry the forwarding address when the error is a session migration: the
// session now lives at Peer under SessionID, and the client should retry
// there.
type ErrorResponse struct {
	Error     string `json:"error"`
	Peer      string `json:"peer,omitempty"`
	SessionID string `json:"session_id,omitempty"`
}
