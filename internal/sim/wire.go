package sim

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"fmt"
	"io"
)

// Program wire format: a compiled program serialized for peer-to-peer
// artifact fetch in a repcutd cluster, so a design partitioned and compiled
// on one node installs on another without recompiling. Every field that
// execution observes is exported and travels through gob; the unexported
// caches (name maps, the linked form) are derived and rebuilt on the
// receiving side. The program fingerprint rides alongside and is recomputed
// after decode — a blob that decodes to anything other than the exact
// program that was sent is rejected, whatever mangled it.

// programWire is the gob envelope: the program plus its fingerprint at
// encode time.
type programWire struct {
	Program     *Program
	Fingerprint uint64
}

// EncodeProgram serializes a compiled program (gob, gzipped) for transfer
// to a peer.
func EncodeProgram(p *Program) ([]byte, error) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := gob.NewEncoder(zw).Encode(programWire{Program: p, Fingerprint: p.Fingerprint()}); err != nil {
		return nil, fmt.Errorf("sim: encode program: %w", err)
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("sim: encode program: %w", err)
	}
	return buf.Bytes(), nil
}

// maxProgramBytes caps the inflated size of a peer's program blob, which
// gob would otherwise follow up to 8 GiB. It is the service's default
// compile-cache budget, 500× MegaBOOM-4C's 0.5 MB program at four threads.
const maxProgramBytes = 256 << 20

// DecodeProgram reverses EncodeProgram, rebuilds the derived lookup tables,
// and verifies the decoded program's fingerprint against the one carried in
// the envelope. A blob that inflates past maxProgramBytes is refused.
func DecodeProgram(data []byte) (*Program, error) {
	return decodeProgram(data, maxProgramBytes)
}

// decodeProgram is DecodeProgram with the inflated-size cap as a parameter.
func decodeProgram(data []byte, limit int64) (*Program, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("sim: decode program: %w", err)
	}
	// Reading to EOF also verifies the gzip CRC; one byte past the cap
	// tells a stream that ends exactly at it from one that goes on.
	raw, err := io.ReadAll(io.LimitReader(zr, limit+1))
	if err != nil {
		return nil, fmt.Errorf("sim: decode program: %w", err)
	}
	if int64(len(raw)) > limit {
		return nil, fmt.Errorf("sim: decode program: program exceeds %d bytes", limit)
	}
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
	p.reindex()
	if fp := p.Fingerprint(); fp != w.Fingerprint {
		return nil, fmt.Errorf("sim: decoded program fingerprint %016x does not match envelope %016x",
			fp, w.Fingerprint)
	}
	return p, nil
}

// reindex rebuilds the name lookup maps gob does not carry (they are
// derived from the slot tables; compile.go builds the same maps).
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
