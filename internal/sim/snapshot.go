package sim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// Session checkpoint/restore: an engine's complete simulation state frozen
// at a cycle boundary, restorable onto any engine over a program with the
// same fingerprint — including a different backend (linked interpreter vs
// native kernel) or a different node of a repcutd cluster. The snapshot
// carries the flat linked state slice verbatim (globals, immediates,
// per-thread frames), every memory column, and the cycle count. At a cycle
// boundary the frames hold only dead scratch — every temp and shadow word
// is defined before use within a cycle under the private-temp model — so
// a snapshot carries them as zeroes, and restoring whatever a blob holds
// there can never change behavior.
//
// The wire encoding is a deterministic binary payload inside a checked
// frame (frame.go) of kind 'S', whose version byte is the layout-version
// guard: any change to the linked state layout or to this format bumps
// SnapshotVersion, so truncated, corrupted or foreign blobs fail loudly at
// decode time instead of restoring silently wrong state.

// SnapshotVersion is the snapshot format version; DecodeSnapshot refuses
// any other. Bump it whenever the linked state layout or the snapshot wire
// format changes shape. Version 3 is framed (frame.go); version 2 was the
// same body in its own RCSN envelope, with the state size beside the
// words; version 1 carried wide values in separate boxed sections.
const SnapshotVersion = 3

// ErrSnapshotVersion is wrapped by every refusal of a snapshot captured
// under another SnapshotVersion (the service answers it with HTTP 409).
var ErrSnapshotVersion = errors.New("sim: snapshot layout version mismatch")

// Snapshot is one engine's (or one batch lane's) complete state at a cycle
// boundary.
type Snapshot struct {
	// Fingerprint identifies the program: restore requires an exact match,
	// which (the compiler being deterministic) implies an identical linked
	// layout on the restoring side.
	Fingerprint uint64
	// Cycles is the simulated-cycle count at capture.
	Cycles uint64
	// Words is the full flat linked state slice [globals | imms | frames].
	Words []uint64
	// Mems holds the memory columns by MemSpec index.
	Mems [][]uint64
}

// Snapshot captures the engine's complete state in the canonical linked
// layout: the globals from thread 0's array, which holds every segment as
// its owner does between Run calls, and each memory column's lowest
// holder's copy.
func (e *Engine) Snapshot() (*Snapshot, error) {
	words := make([]uint64, e.prog.StateWords)
	copy(words, e.st[0])
	return newSnapshot(e.prog, e.canon, e.cycles, words), nil
}

// RestoreSnapshot overwrites the engine's state with the snapshot's. The
// snapshot must come from a program with the same fingerprint (same design,
// same compile options — and therefore, the compiler being deterministic,
// the same linked layout); the backend may differ, so a checkpoint taken on
// the linked interpreter restores onto a native-kernel engine and vice
// versa.
func (e *Engine) RestoreSnapshot(s *Snapshot) error {
	if err := s.check(e.prog); err != nil {
		return err
	}
	for t, st := range e.st {
		copy(st, s.Words)
		s.restoreMems(e.gs[t].mems)
	}
	e.cycles = s.Cycles
	e.instrsRetired = uint64(e.prog.TotalInstrs()) * s.Cycles
	return nil
}

// SnapshotLane captures one batch lane's complete state in the same format
// Engine.Snapshot produces: a batched session's checkpoint restores onto a
// private engine (or another node's batch lane) interchangeably.
func (e *BatchEngine) SnapshotLane(lane int) (*Snapshot, error) {
	if err := e.checkLane(lane); err != nil {
		return nil, err
	}
	gs := e.laneGS[lane]
	words := make([]uint64, e.prog.StateWords)
	for i := range words {
		words[i] = *gs.at(uint32(i))
	}
	return newSnapshot(e.prog, gs, e.cycles[lane], words), nil
}

// RestoreLane overwrites one batch lane's state with the snapshot's,
// leaving every other lane untouched. Same compatibility contract as
// Engine.RestoreSnapshot.
func (e *BatchEngine) RestoreLane(lane int, s *Snapshot) error {
	if err := e.checkLane(lane); err != nil {
		return err
	}
	if err := s.check(e.prog); err != nil {
		return err
	}
	gs := e.laneGS[lane]
	for i, w := range s.Words {
		*gs.at(uint32(i)) = w
	}
	s.restoreMems(gs.mems)
	e.cycles[lane] = s.Cycles
	return nil
}

// StateHashLane hashes one lane's architectural state exactly as
// Engine.StateHash does, so a migrated session's state can be compared
// across nodes and backends.
func (e *BatchEngine) StateHashLane(lane int) (uint64, error) {
	if err := e.checkLane(lane); err != nil {
		return 0, err
	}
	return stateHash(e.prog, e.laneGS[lane]), nil
}

// newSnapshot freezes one state view at a cycle boundary: words is the
// caller's gather of its state words, whose frames it zeroes; the memories
// are copied from gs. The frames are dead scratch at a cycle boundary (the
// shadow is published within the cycle) and what they hold depends on the
// backend — a native kernel keeps chunk-local temps out of them — and on
// how the engine splits its state, so zeroing them makes the blob of one
// state the same on every engine.
func newSnapshot(p *Program, gs *globalState, cycles uint64, words []uint64) *Snapshot {
	if len(p.Threads) > 0 {
		clear(words[p.Threads[0].TempOff:])
	}
	s := &Snapshot{
		Fingerprint: p.Fingerprint(),
		Cycles:      cycles,
		Words:       words,
		Mems:        make([][]uint64, len(gs.mems)),
	}
	for mi, m := range gs.mems {
		s.Mems[mi] = append([]uint64(nil), m...)
	}
	return s
}

// restoreMems copies a (pre-checked) snapshot's memories into one set of
// memory columns, skipping the nil columns an engine thread does not hold;
// the caller scatters s.Words.
func (s *Snapshot) restoreMems(mems [][]uint64) {
	for mi, m := range mems {
		copy(m, s.Mems[mi])
	}
}

// check validates the snapshot against the restoring program's layout:
// fingerprint identity, then every structural dimension. A mismatch
// anywhere means the snapshot was taken under a different program and
// restoring it would be silently wrong.
func (s *Snapshot) check(p *Program) error {
	if fp := p.Fingerprint(); s.Fingerprint != fp {
		return fmt.Errorf("sim: snapshot fingerprint %016x does not match program %016x", s.Fingerprint, fp)
	}
	if len(s.Words) != p.StateWords {
		return fmt.Errorf("sim: snapshot has %d state words, linked layout has %d", len(s.Words), p.StateWords)
	}
	if len(s.Mems) != len(p.Mems) {
		return fmt.Errorf("sim: snapshot has %d memory columns, program has %d", len(s.Mems), len(p.Mems))
	}
	for mi, m := range p.Mems {
		if len(s.Mems[mi]) != m.Depth {
			return fmt.Errorf("sim: snapshot mem %q depth %d, program wants %d", m.Name, len(s.Mems[mi]), m.Depth)
		}
	}
	return nil
}

// Encode serializes the snapshot to its deterministic frame: the payload
// is the fingerprint, the cycles, the state words, and each memory column
// (depth, then its words). Identical snapshots encode to identical bytes.
func (s *Snapshot) Encode() []byte {
	var b []byte
	put := func(ws ...uint64) {
		for _, w := range ws {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
	}
	put(s.Fingerprint, s.Cycles, uint64(len(s.Words)))
	put(s.Words...)
	put(uint64(len(s.Mems)))
	for _, m := range s.Mems {
		put(uint64(len(m)))
		put(m...)
	}
	return appendFrame('S', SnapshotVersion, b)
}

// DecodeSnapshot parses an encoded snapshot. The frame check comes first,
// so truncation or bit rot anywhere in the blob is an error here, not
// silently wrong state after restore; a blob of another version, or of
// the RCSN envelope versions 1 and 2 shipped in, wraps ErrSnapshotVersion.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	body, err := openFrame(data, 'S', SnapshotVersion, maxProgramBytes)
	if bytes.HasPrefix(data, []byte("RCSN")) {
		err = fmt.Errorf("sim: an RCSN blob of snapshot version 1 or 2: %w", errFrameVersion)
	}
	if errors.Is(err, errFrameVersion) {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotVersion, err)
	}
	if err != nil {
		return nil, err
	}
	// After the first error every read is 0, so the loops end at once.
	d := snapDec{b: body}
	s := &Snapshot{}
	s.Fingerprint = d.u64()
	s.Cycles = d.u64()
	s.Words = make([]uint64, d.count())
	for i := range s.Words {
		s.Words[i] = d.u64()
	}
	s.Mems = make([][]uint64, d.count())
	for mi := range s.Mems {
		s.Mems[mi] = make([]uint64, d.count())
		for a := range s.Mems[mi] {
			s.Mems[mi][a] = d.u64()
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("sim: snapshot blob has %d trailing bytes", len(d.b))
	}
	return s, nil
}

// snapDec consumes little-endian fields, latching the first error.
type snapDec struct {
	b   []byte
	err error
}

func (d *snapDec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.err = fmt.Errorf("sim: snapshot blob truncated")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

// count reads a length field and sanity-bounds it against the remaining
// bytes so a corrupted length cannot drive a giant allocation.
func (d *snapDec) count() uint64 {
	n := d.u64()
	if d.err == nil && n > uint64(len(d.b)) {
		d.err = fmt.Errorf("sim: snapshot blob truncated (count %d exceeds remaining %d bytes)", n, len(d.b))
		return 0
	}
	return n
}
