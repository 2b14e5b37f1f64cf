package service

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/sim"
)

// Checkpoint/restore and drain-time migration. A session's simulation state
// serializes to a sim.Snapshot (the flat linked state slice + memories +
// cycle count) that restores into a fresh engine — on this server or on any
// peer holding the same compiled fingerprint — with zero simulated-cycle
// loss. The cluster layer builds live migration on top: a draining node
// checkpoints every session, ships each snapshot to a peer, and leaves a
// forwarding address behind so clients can follow.

var (
	// ErrSnapshotMismatch is returned when a snapshot's program fingerprint
	// does not match the design it is being restored into (HTTP 409).
	ErrSnapshotMismatch = errors.New("service: snapshot does not match design fingerprint")
	// ErrPeerStalled is returned when a cluster peer holding an artifact
	// stopped responding inside the fetch timeout; the request is shed with
	// 503 + Retry-After rather than held open (the cluster layer wraps it).
	ErrPeerStalled = errors.New("service: peer stalled serving artifact")
)

// Migrated is a forwarding address left behind when a session moves to a
// peer during drain.
type Migrated struct {
	Peer      string // peer base address now hosting the session
	SessionID string // the session's ID on that peer
}

// MigratedError reports that a session no longer lives here but was
// migrated to a peer. The server maps it to 503 + Retry-After with the
// forwarding address in the body, so clients can follow.
type MigratedError struct {
	Peer      string
	SessionID string
}

func (e *MigratedError) Error() string {
	return fmt.Sprintf("service: session migrated to %s as %s", e.Peer, e.SessionID)
}

// Checkpoint serializes the session's full simulation state. Must be called
// inside SessionManager.Do (the session mutex serializes it against other
// operations); non-destructive — the session keeps running afterwards.
func (s *Session) Checkpoint() (*sim.Snapshot, error) { return s.b.Snapshot() }

// StateHash returns the session's architectural state hash (name-sorted
// registers + outputs + memories — identical across backends and peers).
// Must be called inside SessionManager.Do.
func (s *Session) StateHash() uint64 { return s.b.StateHash() }

// Restore opens a session over a cached entry and loads a snapshot into it,
// resuming at the snapshot's cycle count. Placement follows Create, and a
// restored session counts toward its program's break-even like a created
// one.
func (sm *SessionManager) Restore(e *Entry, snap *sim.Snapshot, solo bool) (*Session, error) {
	if snap.Fingerprint != e.Fingerprint {
		return nil, fmt.Errorf("%w: snapshot %016x, design %016x",
			ErrSnapshotMismatch, snap.Fingerprint, e.Fingerprint)
	}
	return sm.open(e, snap, solo)
}

// MarkMigrated records a forwarding address for a session that moved to a
// peer; subsequent operations on the old ID get a MigratedError instead of
// a bare ErrDraining/ErrNoSession.
func (sm *SessionManager) MarkMigrated(id, peer, newID string) {
	sm.mu.Lock()
	sm.migrated[id] = Migrated{Peer: peer, SessionID: newID}
	sm.mu.Unlock()
}

// migratedErr returns the forwarding error for id, or nil. Caller holds
// sm.mu.
func (sm *SessionManager) migratedErr(id string) error {
	if mig, ok := sm.migrated[id]; ok {
		return &MigratedError{Peer: mig.Peer, SessionID: mig.SessionID}
	}
	return nil
}

// DrainMigrate drains like Drain, but instead of discarding session state
// it checkpoints every remaining session and offers each snapshot to the
// migrate callback, which ships it to a peer and returns the forwarding
// address. Sessions that migrate leave a MigratedError behind for their
// clients; sessions the callback cannot place are closed like a plain
// drain. A nil migrate is a plain drain: nothing is checkpointed and every
// session closes. Returns how many sessions moved and the first error
// encountered (context expiry or a failed migration) — migration of the
// remaining sessions continues past individual failures.
func (sm *SessionManager) DrainMigrate(ctx context.Context, migrate func(s *Session, snap *sim.Snapshot) (peer, newID string, err error)) (int, error) {
	sm.draining.Store(true)
	done := make(chan struct{})
	go func() {
		sm.ops.Wait()
		close(done)
	}()
	var firstErr error
	select {
	case <-done:
	case <-ctx.Done():
		firstErr = ctx.Err()
	}
	sm.mu.Lock()
	rest := make([]*Session, 0, len(sm.byID))
	for id, s := range sm.byID {
		rest = append(rest, s)
		delete(sm.byID, id)
	}
	sm.mu.Unlock()
	moved := 0
	for _, s := range rest {
		s.mu.Lock()
		var snap *sim.Snapshot
		var err error
		if !s.closed && migrate != nil {
			snap, err = s.Checkpoint()
		}
		s.mu.Unlock()
		switch {
		case err != nil:
			if firstErr == nil {
				firstErr = fmt.Errorf("service: checkpoint %s for migration: %w", s.ID, err)
			}
		case snap != nil:
			sm.m.sessionsCheckpointed.Add(1)
			peer, newID, merr := migrate(s, snap)
			if merr != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("service: migrate %s: %w", s.ID, merr)
				}
				break
			}
			sm.MarkMigrated(s.ID, peer, newID)
			moved++
		}
		sm.finish(s)
		sm.m.sessionsClosed.Add(1)
	}
	return moved, firstErr
}
