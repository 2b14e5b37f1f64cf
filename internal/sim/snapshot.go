package sim

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bitvec"
)

// Session checkpoint/restore: an engine's complete simulation state frozen
// at a cycle boundary, restorable onto any engine over a program with the
// same fingerprint — including a different backend (linked interpreter vs
// native kernel) or a different node of a repcutd cluster. The snapshot
// carries the flat linked state slice verbatim (narrow globals, immediates,
// per-thread frames), the boxed wide globals, every memory, and the cycle
// count. At a cycle boundary the frames hold only dead scratch — every temp
// and shadow word is defined before use within a cycle under the private-
// temp model — so carrying them costs bytes but can never change behavior.
//
// The wire encoding is a deterministic binary format with a version field
// (the layout-version guard: any change to the linked state layout or to
// this format bumps SnapshotVersion) and a trailing checksum, so truncated
// or corrupted blobs fail loudly at decode time instead of restoring
// silently wrong state.

// SnapshotVersion is the snapshot layout version. Restore refuses any other
// version; bump it whenever the linked state layout or the snapshot wire
// format changes shape.
const SnapshotVersion = 1

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
	// Wide holds the boxed wide global values, indexed by wide slot.
	Wide []bitvec.Vec
	// Mems holds the narrow memory arrays by memory index (nil entries are
	// wide memories).
	Mems [][]uint64
	// WideMems holds the wide memory arrays by memory index (nil entries
	// are narrow memories).
	WideMems [][]bitvec.Vec
}

// Snapshot captures the engine's complete state; the format is the linked
// layout.
func (e *Engine) Snapshot() (*Snapshot, error) {
	cur := e.views[e.cur]
	s := &Snapshot{
		Version:     SnapshotVersion,
		Fingerprint: e.prog.Fingerprint(),
		LayoutWords: e.lp.StateWords,
		Cycles:      e.cycles,
		Words:       append([]uint64(nil), cur.state...),
	}
	// The frames are dead scratch; take them from the view the last cycle
	// evaluated over, so the blob does not depend on how many views the
	// engine keeps.
	frames := e.lp.Threads[0].TempOff
	copy(s.Words[frames:], e.other().state[frames:])
	s.Wide = make([]bitvec.Vec, len(cur.gs.wide))
	for i, v := range cur.gs.wide {
		s.Wide[i] = v.Clone()
	}
	s.Mems, s.WideMems = cloneMems(cur.gs)
	return s, nil
}

// RestoreSnapshot overwrites the engine's state with the snapshot's. The
// snapshot must come from a program with the same fingerprint (same design,
// same compile options — and therefore, the compiler being deterministic,
// the same linked layout); the backend may differ, so a checkpoint taken on
// the linked interpreter restores onto a native-kernel engine and vice
// versa.
func (e *Engine) RestoreSnapshot(s *Snapshot) error {
	if err := s.check(e.prog, e.lp); err != nil {
		return err
	}
	for _, v := range e.views {
		copy(v.state, s.Words)
		for i, w := range s.Wide {
			v.gs.wide[i] = w.Clone()
		}
		restoreMems(v.gs, s)
		v.dropWrites()
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
	s := &Snapshot{
		Version:     SnapshotVersion,
		Fingerprint: e.prog.Fingerprint(),
		LayoutWords: e.lp.StateWords,
		Cycles:      e.cycles[lane],
		Words:       make([]uint64, e.lp.StateWords),
	}
	for w := 0; w < e.lp.StateWords; w++ {
		s.Words[w] = e.st[w*BatchWidth+lane]
	}
	gs := e.laneGS[lane]
	s.Wide = make([]bitvec.Vec, len(gs.wide))
	for i, v := range gs.wide {
		s.Wide[i] = v.Clone()
	}
	s.Mems, s.WideMems = cloneMems(gs)
	return s, nil
}

// RestoreLane overwrites one batch lane's state with the snapshot's,
// leaving every other lane untouched. Same compatibility contract as
// Engine.RestoreSnapshot.
func (e *BatchEngine) RestoreLane(lane int, s *Snapshot) error {
	if err := e.checkLane(lane); err != nil {
		return err
	}
	if err := s.check(e.prog, e.lp); err != nil {
		return err
	}
	for w := 0; w < e.lp.StateWords; w++ {
		e.st[w*BatchWidth+lane] = s.Words[w]
	}
	gs := e.laneGS[lane]
	for i, v := range s.Wide {
		gs.wide[i] = v.Clone()
	}
	restoreMems(gs, s)
	for _, tc := range e.laneTC[lane] {
		tc.memBuf = tc.memBuf[:0]
		tc.wideMemBuf = tc.wideMemBuf[:0]
	}
	e.cycles[lane] = s.Cycles
	return nil
}

// StateHashLane hashes one lane's architectural state exactly as
// Engine.StateHash does, so a migrated session's state can be compared
// across nodes and backends without extracting the lane.
func (e *BatchEngine) StateHashLane(lane int) (uint64, error) {
	if err := e.checkLane(lane); err != nil {
		return 0, err
	}
	h := fnv{1469598103934665603}
	p := e.prog
	gs := e.laneGS[lane]
	for _, i := range p.regHashOrder() {
		r := &p.Regs[i]
		if r.Wide {
			h.vec(gs.wide[r.Slot])
		} else {
			h.u64(e.st[int(r.Slot)*BatchWidth+lane])
		}
	}
	for _, i := range p.outputHashOrder() {
		o := &p.Outputs[i]
		if o.Wide {
			h.vec(gs.wide[o.Slot])
		} else {
			h.u64(e.st[int(o.Slot)*BatchWidth+lane])
		}
	}
	for mi := range p.Mems {
		if p.Mems[mi].Wide {
			for _, v := range gs.wideMems[mi] {
				h.vec(v)
			}
		} else {
			for _, v := range gs.mems[mi] {
				h.u64(v)
			}
		}
	}
	return h.h, nil
}

// cloneMems deep-copies a global state's memory arrays.
func cloneMems(gs *globalState) ([][]uint64, [][]bitvec.Vec) {
	mems := make([][]uint64, len(gs.mems))
	wideMems := make([][]bitvec.Vec, len(gs.wideMems))
	for mi := range gs.mems {
		if gs.mems[mi] != nil {
			mems[mi] = append([]uint64(nil), gs.mems[mi]...)
		}
		if gs.wideMems[mi] != nil {
			wideMems[mi] = make([]bitvec.Vec, len(gs.wideMems[mi]))
			for a, v := range gs.wideMems[mi] {
				wideMems[mi][a] = v.Clone()
			}
		}
	}
	return mems, wideMems
}

// restoreMems copies a (pre-checked) snapshot's memories into a global
// state.
func restoreMems(gs *globalState, s *Snapshot) {
	for mi := range gs.mems {
		if gs.mems[mi] != nil {
			copy(gs.mems[mi], s.Mems[mi])
		}
		if gs.wideMems[mi] != nil {
			for a := range gs.wideMems[mi] {
				gs.wideMems[mi][a] = s.WideMems[mi][a].Clone()
			}
		}
	}
}

// check validates the snapshot against the restoring program's layout: the
// version gate first, then fingerprint identity, then every structural
// dimension. A mismatch anywhere means the snapshot was taken under a
// different program or format and restoring it would be silently wrong.
func (s *Snapshot) check(p *Program, lp *LinkedProgram) error {
	if s.Version != SnapshotVersion {
		return fmt.Errorf("sim: snapshot layout version %d, engine speaks %d", s.Version, SnapshotVersion)
	}
	if fp := p.Fingerprint(); s.Fingerprint != fp {
		return fmt.Errorf("sim: snapshot fingerprint %016x does not match program %016x", s.Fingerprint, fp)
	}
	if s.LayoutWords != lp.StateWords || len(s.Words) != lp.StateWords {
		return fmt.Errorf("sim: snapshot has %d/%d state words, linked layout has %d",
			s.LayoutWords, len(s.Words), lp.StateWords)
	}
	if len(s.Wide) != len(p.WideWidths) {
		return fmt.Errorf("sim: snapshot has %d wide slots, program has %d", len(s.Wide), len(p.WideWidths))
	}
	if len(s.Mems) != len(p.Mems) || len(s.WideMems) != len(p.Mems) {
		return fmt.Errorf("sim: snapshot has %d/%d memories, program has %d",
			len(s.Mems), len(s.WideMems), len(p.Mems))
	}
	for mi, m := range p.Mems {
		if m.Wide {
			if len(s.WideMems[mi]) != m.Depth {
				return fmt.Errorf("sim: snapshot mem %q depth %d, program wants %d", m.Name, len(s.WideMems[mi]), m.Depth)
			}
		} else if len(s.Mems[mi]) != m.Depth {
			return fmt.Errorf("sim: snapshot mem %q depth %d, program wants %d", m.Name, len(s.Mems[mi]), m.Depth)
		}
	}
	return nil
}

// Encode serializes the snapshot to the deterministic binary wire format:
// magic, version, fingerprint, layout, cycles, the state sections, and a
// trailing FNV-1a checksum over everything before it. Identical snapshots
// encode to identical bytes.
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
	e.u64(uint64(len(s.Wide)))
	for _, v := range s.Wide {
		e.vec(v)
	}
	e.u64(uint64(len(s.Mems)))
	for mi := range s.Mems {
		switch {
		case s.Mems[mi] != nil:
			e.b = append(e.b, 1)
			e.u64(uint64(len(s.Mems[mi])))
			for _, w := range s.Mems[mi] {
				e.u64(w)
			}
		case s.WideMems[mi] != nil:
			e.b = append(e.b, 2)
			e.u64(uint64(len(s.WideMems[mi])))
			for _, v := range s.WideMems[mi] {
				e.vec(v)
			}
		default:
			e.b = append(e.b, 0)
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
		return nil, fmt.Errorf("sim: snapshot layout version %d, decoder speaks %d", s.Version, SnapshotVersion)
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
	nv := d.count()
	if d.err == nil {
		s.Wide = make([]bitvec.Vec, nv)
		for i := range s.Wide {
			s.Wide[i] = d.vec()
		}
	}
	nm := d.count()
	if d.err == nil {
		s.Mems = make([][]uint64, nm)
		s.WideMems = make([][]bitvec.Vec, nm)
		for mi := 0; mi < int(nm) && d.err == nil; mi++ {
			switch d.u8() {
			case 1:
				depth := d.count()
				if d.err != nil {
					break
				}
				s.Mems[mi] = make([]uint64, depth)
				for a := range s.Mems[mi] {
					s.Mems[mi][a] = d.u64()
				}
			case 2:
				depth := d.count()
				if d.err != nil {
					break
				}
				s.WideMems[mi] = make([]bitvec.Vec, depth)
				for a := range s.WideMems[mi] {
					s.WideMems[mi][a] = d.vec()
				}
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
func (e *snapEnc) vec(v bitvec.Vec) {
	e.u64(uint64(v.Width))
	e.u64(uint64(len(v.Words)))
	for _, w := range v.Words {
		e.u64(w)
	}
}

// snapDec consumes little-endian fields, latching the first error.
type snapDec struct {
	b   []byte
	err error
}

func (d *snapDec) short() { d.err = fmt.Errorf("sim: snapshot blob truncated") }

func (d *snapDec) u8() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 1 {
		d.short()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

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

func (d *snapDec) vec() bitvec.Vec {
	w := int(d.u64())
	n := d.count()
	if d.err != nil {
		return bitvec.Vec{}
	}
	v := bitvec.Vec{Width: w, Words: make([]uint64, n)}
	for i := range v.Words {
		v.Words[i] = d.u64()
	}
	return v
}
