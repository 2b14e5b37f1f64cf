package service

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the number of power-of-two latency buckets. Bucket b
// holds observations with ceil(log2(µs)) == b, so the range spans 1 µs to
// ~2⁷⁰ µs — wide enough for any compile.
const histBuckets = 40

// Hist is a lock-free log2 latency histogram. The zero value is ready to
// use.
type Hist struct {
	count   atomic.Int64
	sumNs   atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one duration.
func (h *Hist) Observe(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	b := bits.Len64(uint64(us)) // 0 µs → bucket 0, 1 µs → 1, 2-3 µs → 2, ...
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.count.Add(1)
	h.sumNs.Add(int64(d))
	h.buckets[b].Add(1)
}

// HistSnapshot is the wire form of a histogram: summary quantiles (upper
// bucket bounds, in milliseconds) plus the raw bucket counts.
type HistSnapshot struct {
	Count   int64        `json:"count"`
	AvgMs   float64      `json:"avg_ms"`
	P50Ms   float64      `json:"p50_ms"`
	P90Ms   float64      `json:"p90_ms"`
	P99Ms   float64      `json:"p99_ms"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// HistBucket is one non-empty histogram bucket.
type HistBucket struct {
	LeMs  float64 `json:"le_ms"` // upper bound, milliseconds
	Count int64   `json:"count"`
}

// Snapshot renders the histogram. Quantiles are upper bucket bounds, so
// they over-estimate by at most 2x — fine for dashboards.
func (h *Hist) Snapshot() HistSnapshot {
	var counts [histBuckets]int64
	total := int64(0)
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	s := HistSnapshot{Count: total}
	if total == 0 {
		return s
	}
	s.AvgMs = float64(h.sumNs.Load()) / float64(total) / 1e6
	q := func(p float64) float64 {
		want := int64(p * float64(total))
		if want < 1 {
			want = 1
		}
		cum := int64(0)
		for i := range counts {
			cum += counts[i]
			if cum >= want {
				return bucketBoundMs(i)
			}
		}
		return bucketBoundMs(histBuckets - 1)
	}
	s.P50Ms, s.P90Ms, s.P99Ms = q(0.50), q(0.90), q(0.99)
	for i, c := range counts {
		if c > 0 {
			s.Buckets = append(s.Buckets, HistBucket{LeMs: bucketBoundMs(i), Count: c})
		}
	}
	return s
}

// bucketBoundMs is the inclusive upper bound of bucket b in milliseconds.
func bucketBoundMs(b int) float64 {
	if b == 0 {
		return 0.001
	}
	return float64(uint64(1)<<b-1) / 1000
}

// Metrics aggregates the server's counters. All fields are safe for
// concurrent update; Snapshot is assembled by the Server, which folds in
// the gauges (live sessions, cache occupancy) it owns.
type Metrics struct {
	start time.Time

	cacheHits      atomic.Int64
	cacheMisses    atomic.Int64
	cacheEvictions atomic.Int64

	compileErrors   atomic.Int64
	compileRejected atomic.Int64
	validations     atomic.Int64 // compiles that carried translation validation

	sessionsCreated  atomic.Int64
	sessionsClosed   atomic.Int64
	sessionsReaped   atomic.Int64
	sessionsRejected atomic.Int64

	sessionsCheckpointed atomic.Int64 // snapshots taken (API + drain-migrate)
	sessionsRestored     atomic.Int64 // sessions opened from a snapshot

	cyclesTotal      atomic.Int64
	stepsTotal       atomic.Int64
	stepsWithOutputs atomic.Int64 // steps that answered with peeked outputs

	sessionsBatched atomic.Int64 // sessions placed on a batch lane
	sessionsSolo    atomic.Int64 // sessions given a private engine
	sessionsSpilled atomic.Int64 // batched sessions migrated off their lane
	batchRuns       atomic.Int64 // RunMasked rounds led
	batchRunLanes   atomic.Int64 // sum of lanes carried per round
	batchedCycles   atomic.Int64 // lane-cycles executed via batch groups
	// sessionsBelowBreakEven counts the private engines given to sessions
	// that asked for the default placement while their program had fewer
	// than MinLaneGroup tenants.
	sessionsBelowBreakEven atomic.Int64

	codegenHits        atomic.Int64 // artifact warm in the store (no build)
	codegenMisses      atomic.Int64 // artifact built by this server
	codegenBuildErrors atomic.Int64 // emission/build/load failures
	codegenHotSwapped  atomic.Int64 // sessions swapped onto a native kernel

	compileLat      Hist
	validateLat     Hist
	stepLat         Hist
	codegenBuildLat Hist
}

// NewMetrics creates a metrics sink with the uptime clock started now.
func NewMetrics() *Metrics { return &Metrics{start: time.Now()} }

// CacheMetrics is the cache section of /metrics.
type CacheMetrics struct {
	Hits       int64   `json:"hits"`
	Misses     int64   `json:"misses"`
	HitRate    float64 `json:"hit_rate"`
	Evictions  int64   `json:"evictions"`
	Entries    int     `json:"entries"`
	Bytes      int64   `json:"bytes"`
	ByteBudget int64   `json:"byte_budget"`
}

// SessionMetrics is the session section of /metrics. Checkpointed counts
// snapshots taken (checkpoint API calls plus drain-time migration);
// Restored counts sessions opened from a snapshot (local restores plus
// migrations arriving from peers).
type SessionMetrics struct {
	Live         int   `json:"live"`
	Capacity     int   `json:"capacity"`
	Created      int64 `json:"created"`
	Closed       int64 `json:"closed"`
	Reaped       int64 `json:"reaped"`
	Rejected     int64 `json:"rejected"`
	Checkpointed int64 `json:"checkpointed"`
	Restored     int64 `json:"restored"`
}

// CompileMetrics is the compile section of /metrics. Validations counts
// cache misses whose compile carried translation validation; the separate
// latency histogram isolates the validator's overhead from the compile's.
type CompileMetrics struct {
	Errors          int64        `json:"errors"`
	Rejected        int64        `json:"rejected"`
	Validations     int64        `json:"validations"`
	Latency         HistSnapshot `json:"latency"`
	ValidateLatency HistSnapshot `json:"validate_latency"`
}

// SimMetrics is the simulation section of /metrics. StepsWithOutputs counts
// the steps that answered with the outputs their request named, so it shows
// how many peeks rode on a step instead of costing a request of their own.
type SimMetrics struct {
	CyclesTotal      int64        `json:"cycles_total"`
	CyclesPerSec     float64      `json:"cycles_per_sec"`
	Steps            int64        `json:"steps"`
	StepsWithOutputs int64        `json:"steps_with_outputs"`
	StepLatency      HistSnapshot `json:"step_latency"`
}

// BatchMetrics is the lane-batching section of /metrics. SessionsSolo counts
// every session given a private engine; SessionsSoloBelowBreakEven is the
// part placed there by the break-even rule (MinLaneGroup), as opposed to an
// explicit solo request, an ineligible program or batching being off.
// MeanLanesPerRun and OccupancyRatio measure coalescing quality: how many
// sessions each instruction dispatch actually carried, absolutely and
// relative to the configured lane width.
type BatchMetrics struct {
	LaneWidth                  int     `json:"lane_width"`
	Groups                     int     `json:"groups"`
	LanesOccupied              int     `json:"lanes_occupied"`
	LaneCapacity               int     `json:"lane_capacity"`
	SessionsBatched            int64   `json:"sessions_batched"`
	SessionsSolo               int64   `json:"sessions_solo"`
	SessionsSoloBelowBreakEven int64   `json:"sessions_solo_below_break_even"`
	SessionsSpilled            int64   `json:"sessions_spilled"`
	Runs                       int64   `json:"runs"`
	MeanLanesPerRun            float64 `json:"mean_lanes_per_run"`
	OccupancyRatio             float64 `json:"occupancy_ratio"`
	BatchedCycles              int64   `json:"batched_cycles"`
	BatchedCPS                 float64 `json:"batched_cycles_per_sec"`
}

// CodegenMetrics is the native-codegen section of /metrics. ArtifactHits
// count build-behind requests satisfied by a warm artifact store;
// ArtifactMisses count plugin builds this server ran (BuildLatency is
// their wall time). SessionsHotSwapped counts private engines migrated
// from the linked interpreter onto a native kernel mid-session. The
// Store* gauges mirror the on-disk artifact store.
type CodegenMetrics struct {
	Enabled            bool         `json:"enabled"`
	Reason             string       `json:"reason,omitempty"` // why disabled, when requested but off
	ArtifactHits       int64        `json:"artifact_hits"`
	ArtifactMisses     int64        `json:"artifact_misses"`
	BuildErrors        int64        `json:"build_errors"`
	SessionsHotSwapped int64        `json:"sessions_hot_swapped"`
	BuildLatency       HistSnapshot `json:"build_latency"`
	StoreEntries       int          `json:"store_entries"`
	StoreBytes         int64        `json:"store_bytes"`
	StoreBudget        int64        `json:"store_budget"`
	StoreEvictions     int64        `json:"store_evictions"`
	StoreCorrupt       int64        `json:"store_corrupt"`
	KernelsLoaded      int          `json:"kernels_loaded"`
}

// ClusterMetrics is the cluster section of /metrics, filled by the cluster
// layer when this server is part of a multi-node fleet (absent otherwise).
// CompilesLocal counts misses this node compiled itself (it owned the key,
// the request was already routed, or peer fetch fell back); CompilesRouted
// counts misses resolved by fetching the artifact from the owning peer.
// The ArtifactFetch* counters break down the peer-fetch path: successes,
// fallbacks to local compile after a peer died, timeouts that shed the
// request, and corrupt bodies caught by the content hash. ArtifactsServed
// counts fetches this node answered for peers; NativeFetches counts native
// plugin artifacts pulled from peers instead of rebuilt.
type ClusterMetrics struct {
	Enabled                bool     `json:"enabled"`
	Self                   string   `json:"self"`
	Peers                  []string `json:"peers"`
	CompilesLocal          int64    `json:"compiles_local"`
	CompilesRouted         int64    `json:"compiles_routed"`
	ArtifactFetches        int64    `json:"artifact_fetches"`
	ArtifactFetchFallbacks int64    `json:"artifact_fetch_fallbacks"`
	ArtifactFetchTimeouts  int64    `json:"artifact_fetch_timeouts"`
	ArtifactFetchCorrupt   int64    `json:"artifact_fetch_corrupt"`
	ArtifactsServed        int64    `json:"artifacts_served"`
	NativeFetches          int64    `json:"native_fetches"`
	SessionsMigratedOut    int64    `json:"sessions_migrated_out"`
	SessionsMigratedIn     int64    `json:"sessions_migrated_in"`
}

// MetricsSnapshot is the full /metrics payload.
type MetricsSnapshot struct {
	UptimeSec float64         `json:"uptime_sec"`
	Cache     CacheMetrics    `json:"cache"`
	Sessions  SessionMetrics  `json:"sessions"`
	Compile   CompileMetrics  `json:"compile"`
	Sim       SimMetrics      `json:"sim"`
	Batch     BatchMetrics    `json:"batch"`
	Codegen   CodegenMetrics  `json:"codegen"`
	Cluster   *ClusterMetrics `json:"cluster,omitempty"`
}

// snapshot folds the counters into a wire snapshot; gauges (cache
// occupancy, live sessions) are filled in by the caller.
func (m *Metrics) snapshot() MetricsSnapshot {
	up := time.Since(m.start).Seconds()
	hits, misses := m.cacheHits.Load(), m.cacheMisses.Load()
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	cycles := m.cyclesTotal.Load()
	cps := 0.0
	if up > 0 {
		cps = float64(cycles) / up
	}
	return MetricsSnapshot{
		UptimeSec: up,
		Cache: CacheMetrics{
			Hits: hits, Misses: misses, HitRate: hitRate,
			Evictions: m.cacheEvictions.Load(),
		},
		Sessions: SessionMetrics{
			Created: m.sessionsCreated.Load(), Closed: m.sessionsClosed.Load(),
			Reaped: m.sessionsReaped.Load(), Rejected: m.sessionsRejected.Load(),
			Checkpointed: m.sessionsCheckpointed.Load(),
			Restored:     m.sessionsRestored.Load(),
		},
		Compile: CompileMetrics{
			Errors: m.compileErrors.Load(), Rejected: m.compileRejected.Load(),
			Validations:     m.validations.Load(),
			Latency:         m.compileLat.Snapshot(),
			ValidateLatency: m.validateLat.Snapshot(),
		},
		Sim: SimMetrics{
			CyclesTotal: cycles, CyclesPerSec: cps,
			Steps: m.stepsTotal.Load(), StepsWithOutputs: m.stepsWithOutputs.Load(),
			StepLatency: m.stepLat.Snapshot(),
		},
		Batch: m.batchSnapshot(up),
		Codegen: CodegenMetrics{
			ArtifactHits:       m.codegenHits.Load(),
			ArtifactMisses:     m.codegenMisses.Load(),
			BuildErrors:        m.codegenBuildErrors.Load(),
			SessionsHotSwapped: m.codegenHotSwapped.Load(),
			BuildLatency:       m.codegenBuildLat.Snapshot(),
		},
	}
}

// batchSnapshot renders the batching counters; the pool gauges (groups,
// occupancy, lane width) are filled in by the Server.
func (m *Metrics) batchSnapshot(uptimeSec float64) BatchMetrics {
	b := BatchMetrics{
		SessionsBatched:            m.sessionsBatched.Load(),
		SessionsSolo:               m.sessionsSolo.Load(),
		SessionsSoloBelowBreakEven: m.sessionsBelowBreakEven.Load(),
		SessionsSpilled:            m.sessionsSpilled.Load(),
		Runs:                       m.batchRuns.Load(),
		BatchedCycles:              m.batchedCycles.Load(),
	}
	if b.Runs > 0 {
		b.MeanLanesPerRun = float64(m.batchRunLanes.Load()) / float64(b.Runs)
	}
	if uptimeSec > 0 {
		b.BatchedCPS = float64(b.BatchedCycles) / uptimeSec
	}
	return b
}
