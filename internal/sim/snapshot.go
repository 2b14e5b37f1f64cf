package sim

import (
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
// The wire encoding is a deterministic binary format with a version field
// (the layout-version guard: any change to the linked state layout or to
// this format bumps SnapshotVersion) and a trailing checksum, so truncated
// or corrupted blobs fail loudly at decode time instead of restoring
// silently wrong state.

// SnapshotVersion is the snapshot layout version. Restore refuses any other
// version; bump it whenever the linked state layout or the snapshot wire
// format changes shape. Version 2 holds values wider than 64 bits as words
// of the state slice and wide memories as word columns; version 1 carried
// them in separate boxed sections.
const SnapshotVersion = 2

// ErrSnapshotVersion is wrapped by every refusal of a snapshot captured
// under another SnapshotVersion (the service answers it with HTTP 409).
var ErrSnapshotVersion = errors.New("sim: snapshot layout version mismatch")

// snapMagic brands every encoded snapshot blob.
var snapMagic = [4]byte{'R', 'C', 'S', 'N'}

// Snapshot is one engine's (or one batch lane's) complete state at a cycle
// boundary.
type Snapshot struct {
	// Version is the layout version this snapshot was captured under
	// (SnapshotVersion at capture time).
	Version uint32
	// Fingerprint identifies the program: restore requires an exact match,
	// which (the compiler being deterministic) implies an identical linked
	// layout on the restoring side.
	Fingerprint uint64
	// LayoutWords is the linked form's StateWords at capture — a second,
	// structural guard behind the fingerprint.
	LayoutWords int
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
		Version:     SnapshotVersion,
		Fingerprint: p.Fingerprint(),
		LayoutWords: p.StateWords,
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

// check validates the snapshot against the restoring program's layout: the
// version gate first, then fingerprint identity, then every structural
// dimension. A mismatch anywhere means the snapshot was taken under a
// different program or format and restoring it would be silently wrong.
func (s *Snapshot) check(p *Program) error {
	if s.Version != SnapshotVersion {
		return fmt.Errorf("%w: snapshot is version %d, engine speaks %d", ErrSnapshotVersion, s.Version, SnapshotVersion)
	}
	if fp := p.Fingerprint(); s.Fingerprint != fp {
		return fmt.Errorf("sim: snapshot fingerprint %016x does not match program %016x", s.Fingerprint, fp)
	}
	if s.LayoutWords != p.StateWords || len(s.Words) != p.StateWords {
		return fmt.Errorf("sim: snapshot has %d/%d state words, linked layout has %d",
			s.LayoutWords, len(s.Words), p.StateWords)
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

// Encode serializes the snapshot to the deterministic binary wire format:
// magic, version, fingerprint, layout, cycles, the state words, each memory
// column (depth, then its words), and a trailing FNV-1a checksum over
// everything before it. Identical snapshots encode to identical bytes.
func (s *Snapshot) Encode() []byte {
	var e snapEnc
	e.b = append(e.b, snapMagic[:]...)
	e.u32(s.Version)
	e.u64(s.Fingerprint)
	e.u64(uint64(s.LayoutWords))
	e.u64(s.Cycles)
	e.u64(uint64(len(s.Words)))
	for _, w := range s.Words {
		e.u64(w)
	}
	e.u64(uint64(len(s.Mems)))
	for _, m := range s.Mems {
		e.u64(uint64(len(m)))
		for _, w := range m {
			e.u64(w)
		}
	}
	e.u64(checksum(e.b))
	return e.b
}

// DecodeSnapshot parses an encoded snapshot, verifying the magic, the
// version, and the trailing checksum (so truncation or bit rot anywhere in
// the blob is an error here, not silently wrong state after restore).
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	if len(data) < len(snapMagic)+4+8 {
		return nil, fmt.Errorf("sim: snapshot blob truncated (%d bytes)", len(data))
	}
	if [4]byte(data[:4]) != snapMagic {
		return nil, fmt.Errorf("sim: not a snapshot blob (bad magic)")
	}
	body, tail := data[:len(data)-8], data[len(data)-8:]
	if got, want := binary.LittleEndian.Uint64(tail), checksum(body); got != want {
		return nil, fmt.Errorf("sim: snapshot checksum mismatch (truncated or corrupted blob)")
	}
	d := snapDec{b: body[4:]}
	s := &Snapshot{}
	s.Version = d.u32()
	if d.err == nil && s.Version != SnapshotVersion {
		return nil, fmt.Errorf("%w: blob is version %d, decoder speaks %d", ErrSnapshotVersion, s.Version, SnapshotVersion)
	}
	s.Fingerprint = d.u64()
	s.LayoutWords = int(d.u64())
	s.Cycles = d.u64()
	nw := d.count()
	if d.err == nil {
		s.Words = make([]uint64, nw)
		for i := range s.Words {
			s.Words[i] = d.u64()
		}
	}
	nm := d.count()
	if d.err == nil {
		s.Mems = make([][]uint64, nm)
		for mi := 0; mi < int(nm) && d.err == nil; mi++ {
			depth := d.count()
			if d.err != nil {
				break
			}
			s.Mems[mi] = make([]uint64, depth)
			for a := range s.Mems[mi] {
				s.Mems[mi][a] = d.u64()
			}
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

// checksum is FNV-1a over the encoded bytes.
func checksum(b []byte) uint64 {
	h := uint64(1469598103934665603)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// snapEnc appends little-endian fields to a growing buffer.
type snapEnc struct{ b []byte }

func (e *snapEnc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *snapEnc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }

// snapDec consumes little-endian fields, latching the first error.
type snapDec struct {
	b   []byte
	err error
}

func (d *snapDec) short() { d.err = fmt.Errorf("sim: snapshot blob truncated") }

func (d *snapDec) u32() uint32 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 4 {
		d.short()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

func (d *snapDec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.short()
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
