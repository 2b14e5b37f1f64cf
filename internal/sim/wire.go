package sim

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"slices"
)

// Program wire format: a compiled program serialized for peer-to-peer
// artifact fetch in a repcutd cluster, so a program compiled on one node
// installs on another. The program travels as gob inside a checked frame
// (frame.go) of kind 'P', with the linked code engines run and none of the
// layout derived from it: the receiver lays the frames out and builds the
// exchange itself, checks every operand against them and recomputes the
// fingerprint. A blob that decodes to anything but the exact program sent,
// or to one an engine could not run, is rejected.

// programWire is the frame's payload: the program with its code, and its
// fingerprint at encode time.
type programWire struct {
	Program     *Program
	Fingerprint uint64
}

// programVersion is the only program frame version DecodeProgram reads.
// Version 2 was a gzipped gob envelope that also shipped the derived
// layout; version 1 carried a tagged copy of the code beside the program.
const programVersion = 3

// EncodeProgram serializes a compiled program for transfer to a peer. It
// encodes a copy whose derived layout (StateWords, ImmOff, Exchange and
// every thread's frame offsets) is zero, which gob leaves out.
func EncodeProgram(p *Program) ([]byte, error) {
	q := *p
	q.StateWords, q.ImmOff, q.Exchange = 0, 0, nil
	q.Threads = slices.Clone(p.Threads)
	for t := range q.Threads {
		th := &q.Threads[t]
		th.TempOff, th.ShadowOff, th.End = 0, 0, 0
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(programWire{Program: &q, Fingerprint: p.Fingerprint()}); err != nil {
		return nil, fmt.Errorf("sim: encode program: %w", err)
	}
	return appendFrame('P', programVersion, buf.Bytes()), nil
}

// maxProgramBytes caps a program or snapshot frame's payload, which also
// bounds every slice and string gob decodes from it (gob checks each
// length against the bytes left), and the state words plus memory words
// one engine over a decoded program allocates. It is the service's
// default compile-cache budget, 500× MegaBOOM-4C's 0.5 MB program at four
// threads.
const maxProgramBytes = 256 << 20

// DecodeProgram reverses EncodeProgram: it opens the frame, recomputes the
// state layout and the exchange, checks the code against them, rebuilds
// the derived lookup tables, and verifies the decoded program's
// fingerprint against the one carried in the payload.
func DecodeProgram(data []byte) (*Program, error) {
	payload, err := openFrame(data, 'P', programVersion, maxProgramBytes)
	if err != nil {
		return nil, err
	}
	return decodeWire(payload)
}

// decodeWire decodes and checks one frame payload.
func decodeWire(raw []byte) (*Program, error) {
	var w programWire
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&w); err != nil {
		return nil, fmt.Errorf("sim: decode program: %w", err)
	}
	if w.Program == nil {
		return nil, fmt.Errorf("sim: decode program: empty envelope")
	}
	p := w.Program
	if len(p.Threads) == 0 || len(p.Threads) != p.NumThreads {
		return nil, fmt.Errorf("sim: decode program: %d thread codes for %d threads", len(p.Threads), p.NumThreads)
	}
	if err := p.checkLayout(); err != nil {
		return nil, fmt.Errorf("sim: decode program: %w", err)
	}
	p.reindex()
	p.layoutFrames()
	if err := p.checkCode(); err != nil {
		return nil, fmt.Errorf("sim: decode program: %w", err)
	}
	p.Exchange = p.exchange()
	p.fp = p.fingerprint()
	if p.fp != w.Fingerprint {
		return nil, fmt.Errorf("sim: decoded program fingerprint %016x does not match envelope %016x",
			p.fp, w.Fingerprint)
	}
	return p, nil
}

// checkLayout rejects a layout an engine could not hold: a negative size, a
// thread segment or a port or register slot outside the global words, or
// state and memory words past maxProgramBytes in all.
func (p *Program) checkLayout() error {
	const limit = maxProgramBytes / 8
	ok, total := true, int64(0)
	add := func(n int) {
		ok = ok && n >= 0 && n <= limit
		total += int64(n)
	}
	add(p.GlobalWords)
	add(len(p.Imms))
	for _, th := range p.Threads {
		add(th.NumTemps)
		add(th.ShadowWords)
		total += SegmentWords // a frame is padded to a segment
		ok = ok && th.GlobalOff >= 0 && th.ShadowWords <= p.GlobalWords-th.GlobalOff
	}
	for _, m := range p.Mems {
		add(m.Depth)
	}
	within := func(slot uint32, width int) bool {
		return width >= 0 && width <= 64*p.GlobalWords && int64(slot)+int64(words(width)) <= int64(p.GlobalWords)
	}
	for _, ps := range slices.Concat(p.Inputs, p.Outputs) {
		ok = ok && within(ps.Slot, ps.Width)
	}
	for _, r := range p.Regs {
		ok = ok && within(r.Slot, r.Width)
	}
	if !ok || total > limit {
		return fmt.Errorf("layout outside its bounds or over %d state and memory words", limit)
	}
	return nil
}

// checkCode rejects linked code an engine could not run: an opcode outside
// the table, a memory past the program's, or a state operand outside the
// globals, the immediates and its thread's frame (padding, another
// thread's frame, past the state array).
func (p *Program) checkCode() error {
	var defs, uses []uint32
	for t := range p.Threads {
		th := &p.Threads[t]
		for pc := range th.Code {
			in := &th.Code[pc]
			if in.Op >= numOpCodes {
				return fmt.Errorf("thread %d pc %d: opcode %d", t, pc, in.Op)
			}
			if (in.Op == OpMemRd || in.Op == OpMemWr) && int(in.Aux) >= len(p.Mems) {
				return fmt.Errorf("thread %d pc %d: memory %d of %d", t, pc, in.Aux, len(p.Mems))
			}
			defs, uses, _, _ = p.LinkedDefUse(in, defs[:0], uses[:0], nil, nil)
			for _, idx := range slices.Concat(defs, uses) {
				if _, owner, ok := p.LinkedLoc(idx); !ok || owner != -1 && owner != t {
					return fmt.Errorf("thread %d pc %d: operand %d outside the globals, the immediates and the thread's frame", t, pc, idx)
				}
			}
		}
	}
	return nil
}

// reindex builds the name lookup maps from the slot tables, for Compile
// and for DecodeProgram (gob does not carry them).
func (p *Program) reindex() {
	p.inputByName = make(map[string]int, len(p.Inputs))
	for i, ps := range p.Inputs {
		p.inputByName[ps.Name] = i
	}
	p.outputByName = make(map[string]int, len(p.Outputs))
	for i, ps := range p.Outputs {
		p.outputByName[ps.Name] = i
	}
	p.regByName = make(map[string]int, len(p.Regs))
	for i, r := range p.Regs {
		p.regByName[r.Name] = i
	}
}
