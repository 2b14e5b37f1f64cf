package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// One checked frame carries every blob this package ships between nodes,
// a snapshot (kind 'S') or a program (kind 'P'):
//
//	"RCFR" | kind u8 | version u8 | payload length u64 | payload | FNV-1a(payload) u64
//
// openFrame is its only reader: it refuses a blob of another kind or
// version, a length over the kind's cap before it looks at the payload, a
// length the blob does not hold, and a payload whose checksum does not
// match, so truncation or bit rot fails loudly here, not later as a
// silently wrong state or program.

// frameMagic brands every frame; frameHeader is the bytes before the
// payload, and the checksum's 8 follow it.
var frameMagic = [4]byte{'R', 'C', 'F', 'R'}

const frameHeader = len(frameMagic) + 2 + 8

// errFrameVersion is wrapped by every refusal of a frame of the right kind
// written under another format version.
var errFrameVersion = errors.New("format version mismatch")

// frameNames names each kind in errors.
var frameNames = map[byte]string{'S': "snapshot", 'P': "program"}

// appendFrame frames one payload.
func appendFrame(kind, version byte, payload []byte) []byte {
	b := make([]byte, 0, frameHeader+len(payload)+8)
	b = append(append(b, frameMagic[:]...), kind, version)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint64(b, checksum(payload))
}

// openFrame checks one frame of the given kind and version, whose payload
// may hold at most limit bytes, and returns the payload (a subslice of
// data).
func openFrame(data []byte, kind, version byte, limit uint64) ([]byte, error) {
	name := frameNames[kind]
	if len(data) < frameHeader+8 || [4]byte(data[:4]) != frameMagic {
		return nil, fmt.Errorf("sim: not a %s frame (%d bytes, bad magic or truncated)", name, len(data))
	}
	if data[4] != kind {
		return nil, fmt.Errorf("sim: not a %s frame (kind %q)", name, data[4])
	}
	if data[5] != version {
		return nil, fmt.Errorf("sim: %s frame is version %d, decoder speaks %d: %w", name, data[5], version, errFrameVersion)
	}
	n := binary.LittleEndian.Uint64(data[6:frameHeader])
	if n > limit {
		return nil, fmt.Errorf("sim: %s frame declares %d payload bytes, over its cap of %d", name, n, limit)
	}
	if n != uint64(len(data)-frameHeader-8) {
		return nil, fmt.Errorf("sim: %s frame declares %d payload bytes, holds %d", name, n, len(data)-frameHeader-8)
	}
	payload := data[frameHeader : frameHeader+int(n)]
	if binary.LittleEndian.Uint64(data[frameHeader+int(n):]) != checksum(payload) {
		return nil, fmt.Errorf("sim: %s frame checksum mismatch (truncated or corrupted)", name)
	}
	return payload, nil
}

// checksum is FNV-1a over a frame's payload.
func checksum(b []byte) uint64 {
	h := uint64(1469598103934665603)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}
