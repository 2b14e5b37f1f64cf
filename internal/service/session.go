package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	repcut "repro"
	"repro/internal/bitvec"
	"repro/internal/par"
	"repro/internal/sim"
)

// Session lifecycle errors, mapped to HTTP statuses by the server.
var (
	ErrSessionLimit  = errors.New("service: session limit reached")
	ErrDraining      = errors.New("service: server is draining")
	ErrNoSession     = errors.New("service: no such session")
	ErrSessionClosed = errors.New("service: session is closed")
	ErrNoVCD         = errors.New("service: session has no VCD capture (POST .../vcd first)")
)

// Session is one stateful simulation. It runs on one of two backends:
// a lane of a shared batch group (the default once MinLaneGroup live
// sessions simulate the same program), or a private engine (solo creates,
// sessions below the break-even, ineligible programs, and sessions that
// spilled for VCD capture).
// Operations on a session are serialized by its mutex; different sessions
// run fully concurrently.
type Session struct {
	ID  string
	Key string

	b      backend
	tenant *batchPool // non-nil while the session counts toward its program's break-even

	vcd    *sim.VCDWriter // non-nil while capturing (implies private engine)
	vcdBuf bytes.Buffer   // the capture so far
	cycle  uint64         // cycle count after the last operation
	entry  *Entry         // cache entry the session was created from (program, kernel)

	mu       sync.Mutex
	lastUsed atomic.Int64 // unix nanos
	closed   bool
}

// backend is where a session simulates: a private *repcut.Simulator or a
// *laneBackend on a shared batch group. Every session operation is one call
// on it.
type backend interface {
	PokeInput(name string, v uint64) error
	PeekOutput(name string) (uint64, error)
	PeekReg(name string) (bitvec.Vec, error)
	Run(n int)
	Cycles() uint64
	Snapshot() (*sim.Snapshot, error)
	RestoreSnapshot(s *sim.Snapshot) error
	StateHash() uint64
}

// laneHandle returns the session's batch lane handle, nil on a private engine.
func (s *Session) laneHandle() *laneBackend {
	l, _ := s.b.(*laneBackend)
	return l
}

// privateSim returns the session's private simulator, nil on a batch lane.
func (s *Session) privateSim() *repcut.Simulator {
	p, _ := s.b.(*repcut.Simulator)
	return p
}

// Batched reports whether the session currently occupies a batch lane.
func (s *Session) Batched() bool { return s.laneHandle() != nil }

// Cycles returns the session's cycle count as of its last operation.
func (s *Session) Cycles() uint64 { return s.cycle }

// Poke sets a narrow input port.
func (s *Session) Poke(name string, v uint64) error { return s.b.PokeInput(name, v) }

// PeekOutput reads a narrow output port.
func (s *Session) PeekOutput(name string) (uint64, error) { return s.b.PeekOutput(name) }

// PeekReg reads a register, narrow or wide.
func (s *Session) PeekReg(name string) (bitvec.Vec, error) { return s.b.PeekReg(name) }

// Run advances the session n cycles and returns its new cycle count. A
// session with an active VCD capture samples every cycle.
func (s *Session) Run(n int) uint64 {
	if s.vcd != nil {
		_ = s.vcd.RunSampled(n)
	} else {
		s.b.Run(n)
	}
	s.cycle = s.b.Cycles()
	return s.cycle
}

// StartVCD begins waveform capture, spilling the session off its batch
// lane first (the writer samples a private engine cycle by cycle).
// Idempotent: a second start keeps the existing capture.
func (s *Session) StartVCD(sm *SessionManager) error {
	if s.vcd != nil {
		return nil
	}
	if err := s.spill(sm); err != nil {
		return err
	}
	w := sim.NewVCDWriter(&s.vcdBuf, s.privateSim().Engine)
	if err := w.Sample(); err != nil { // header + initial values
		return err
	}
	s.vcd = w
	return nil
}

// VCD returns the capture accumulated so far.
func (s *Session) VCD() ([]byte, error) {
	if s.vcd == nil {
		return nil, ErrNoVCD
	}
	return s.vcdBuf.Bytes(), nil
}

// spill moves a batched session onto a private engine: snapshot the lane,
// free it, and load the snapshot the way a solo restore does. Sampling
// through the lane instead would cost one group round, and so at least one
// linger, per captured cycle.
func (s *Session) spill(sm *SessionManager) error {
	l := s.laneHandle()
	if l == nil {
		return nil
	}
	snap, err := l.Snapshot()
	if err != nil {
		return err
	}
	l.free()
	s.b = nil
	if err := s.load(snap); err != nil {
		return err
	}
	sm.m.sessionsSpilled.Add(1)
	return nil
}

// load gives a session without a lane its private engine and restores snap
// (when non-nil) into the session's backend.
func (s *Session) load(snap *sim.Snapshot) error {
	if s.b == nil {
		s.b = s.entry.Compiled.NewSimulator()
	}
	if snap == nil {
		return nil
	}
	return s.b.RestoreSnapshot(snap)
}

// maybeHotSwap installs the entry's native kernel on the session's
// private engine once the codegen tier's build-behind has delivered it.
// Called with the session mutex held on every operation; until the kernel
// lands this is a nil pointer load. Batch lanes never swap (the batch
// engine has no native path) — a batched session picks the kernel up if
// it later spills to a private engine. The swap is state-preserving: the
// kernel indexes the same unified state slice the linked interpreter
// does, so it is invisible mid-simulation.
func (s *Session) maybeHotSwap(m *Metrics) {
	p := s.privateSim()
	if p == nil || p.Backend != repcut.BackendLinked {
		return
	}
	k := s.entry.Native()
	if k == nil || p.Engine.NativeInstalled() {
		return
	}
	if err := p.Engine.InstallNative(k.Threads); err == nil {
		p.Backend = repcut.BackendNative
		m.codegenHotSwapped.Add(1)
	}
}

// release frees the session's batch lane, if any, and ends its tenancy.
// Called with s.mu held, exactly once, by SessionManager.finish, or on a
// session that never became visible.
func (s *Session) release() {
	if l := s.laneHandle(); l != nil {
		l.free()
		s.b = nil
	}
	if p := s.tenant; p != nil {
		p.leave(s.entry.Fingerprint)
		s.tenant = nil
	}
}

// touch records activity for the idle reaper.
func (s *Session) touch(now time.Time) { s.lastUsed.Store(now.UnixNano()) }

// SessionManager owns the live-session table: bounded admission
// (par.Sem), lane placement via the batch pool, idle reaping, and a
// graceful drain that lets in-flight operations finish before the last
// session is torn down.
type SessionManager struct {
	sem   *par.Sem
	idle  time.Duration
	m     *Metrics
	batch *batchPool

	mu   sync.Mutex
	byID map[string]*Session
	seq  atomic.Int64
	// migrated holds forwarding addresses for sessions that moved to a peer
	// during DrainMigrate, keyed by their old ID (guarded by mu).
	migrated map[string]Migrated

	draining atomic.Bool
	ops      sync.WaitGroup
}

// NewSessionManager creates a manager admitting at most maxLive concurrent
// sessions, reaping sessions idle longer than idleTimeout (0 disables
// reaping), and coalescing same-program sessions into batch groups of
// batchLanes lanes (<= 1 disables batching).
func NewSessionManager(maxLive int, idleTimeout time.Duration, batchLanes int, m *Metrics) *SessionManager {
	if m == nil {
		m = NewMetrics()
	}
	return &SessionManager{
		sem:      par.NewSem(maxLive),
		idle:     idleTimeout,
		m:        m,
		batch:    newBatchPool(batchLanes, m),
		byID:     make(map[string]*Session),
		migrated: make(map[string]Migrated),
	}
}

// Live returns the number of live sessions.
func (sm *SessionManager) Live() int {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	return len(sm.byID)
}

// Capacity returns the admission limit.
func (sm *SessionManager) Capacity() int { return sm.sem.Cap() }

// BatchStats exposes the batch pool gauges.
func (sm *SessionManager) BatchStats() (groups, occupied, capacity int) {
	return sm.batch.stats()
}

// Create opens a session over a cached entry, placing it on a batch lane
// when the pool's break-even rule allows (never when solo is set).
// ErrSessionLimit when
// the admission bound is hit (HTTP 429), ErrDraining during shutdown
// (503).
func (sm *SessionManager) Create(e *Entry, solo bool) (*Session, error) {
	return sm.open(e, nil, solo)
}

// open is Create and Restore: admit a session, place it, build its backend,
// load snap into it when non-nil, re-check draining, and count it.
func (sm *SessionManager) open(e *Entry, snap *sim.Snapshot, solo bool) (*Session, error) {
	if sm.draining.Load() {
		return nil, ErrDraining
	}
	if !sm.sem.TryAcquire() {
		sm.m.sessionsRejected.Add(1)
		return nil, ErrSessionLimit
	}
	s := &Session{ID: fmt.Sprintf("s%08x", sm.seq.Add(1)), Key: e.Key, entry: e}
	belowBreakEven := false
	if !solo {
		belowBreakEven = sm.batch.place(s)
	}
	if err := s.load(snap); err != nil {
		s.release()
		sm.sem.Release()
		return nil, err
	}
	s.cycle = s.b.Cycles()
	s.touch(time.Now())
	sm.mu.Lock()
	if sm.draining.Load() { // re-check under the table lock
		sm.mu.Unlock()
		s.release()
		sm.sem.Release()
		return nil, ErrDraining
	}
	sm.byID[s.ID] = s
	sm.mu.Unlock()
	sm.countCreated(s, belowBreakEven)
	if snap != nil {
		sm.m.sessionsRestored.Add(1)
	}
	return s, nil
}

// countCreated records a session that became visible and how it was placed.
func (sm *SessionManager) countCreated(s *Session, belowBreakEven bool) {
	sm.m.sessionsCreated.Add(1)
	if s.Batched() {
		sm.m.sessionsBatched.Add(1)
		return
	}
	sm.m.sessionsSolo.Add(1)
	if belowBreakEven {
		sm.m.sessionsBelowBreakEven.Add(1)
	}
}

// Do runs fn against a live session with the session mutex held, keeping
// the operation visible to graceful drain. The idle clock is touched on
// entry and exit, so a long Run(n) doesn't get its session reaped from
// under it.
func (sm *SessionManager) Do(id string, fn func(*Session) error) error {
	sm.mu.Lock()
	if sm.draining.Load() {
		// A migrated session's clients get the forwarding address even while
		// the drain is still in progress.
		if merr := sm.migratedErr(id); merr != nil {
			sm.mu.Unlock()
			return merr
		}
		sm.mu.Unlock()
		return ErrDraining
	}
	s, ok := sm.byID[id]
	if !ok {
		if merr := sm.migratedErr(id); merr != nil {
			sm.mu.Unlock()
			return merr
		}
		sm.mu.Unlock()
		return ErrNoSession
	}
	sm.ops.Add(1)
	sm.mu.Unlock()
	defer sm.ops.Done()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSessionClosed
	}
	s.touch(time.Now())
	s.maybeHotSwap(sm.m)
	err := fn(s)
	s.touch(time.Now())
	return err
}

// Close tears down one session. Idempotent at the HTTP layer: a second
// close reports ErrNoSession.
func (sm *SessionManager) Close(id string) (*Session, error) {
	sm.mu.Lock()
	s, ok := sm.byID[id]
	if ok {
		delete(sm.byID, id)
	}
	var merr error
	if !ok {
		merr = sm.migratedErr(id)
	}
	sm.mu.Unlock()
	if !ok {
		if merr != nil {
			return nil, merr
		}
		return nil, ErrNoSession
	}
	sm.finish(s)
	sm.m.sessionsClosed.Add(1)
	return s, nil
}

// finish marks a removed session closed and returns its admission slot,
// batch lane and tenancy. It waits for any in-flight operation by taking the
// session mutex.
func (sm *SessionManager) finish(s *Session) {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.release()
		sm.sem.Release()
	}
	s.mu.Unlock()
}

// Reap closes every session idle longer than the idle timeout and returns
// how many it closed. The server's reaper loop calls it periodically;
// tests call it directly with a synthetic clock.
func (sm *SessionManager) Reap(now time.Time) int {
	if sm.idle <= 0 {
		return 0
	}
	cutoff := now.Add(-sm.idle).UnixNano()
	sm.mu.Lock()
	var stale []*Session
	for id, s := range sm.byID {
		if s.lastUsed.Load() < cutoff {
			stale = append(stale, s)
			delete(sm.byID, id)
		}
	}
	sm.mu.Unlock()
	for _, s := range stale {
		sm.finish(s)
		sm.m.sessionsReaped.Add(1)
	}
	return len(stale)
}

// Drain stops admitting work and waits — up to the context deadline — for
// in-flight operations to finish, then closes every remaining session.
// Steps already executing complete; new creates and ops get ErrDraining.
func (sm *SessionManager) Drain(ctx context.Context) error {
	sm.draining.Store(true)
	done := make(chan struct{})
	go func() {
		sm.ops.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	sm.mu.Lock()
	rest := make([]*Session, 0, len(sm.byID))
	for id, s := range sm.byID {
		rest = append(rest, s)
		delete(sm.byID, id)
	}
	sm.mu.Unlock()
	for _, s := range rest {
		sm.finish(s)
		sm.m.sessionsClosed.Add(1)
	}
	return err
}
