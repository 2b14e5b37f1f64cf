package sim

import (
	"encoding/binary"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// frameRefusal matches every error openFrame returns, each naming what is
// wrong: magic or kind, version, declared length, checksum.
var frameRefusal = regexp.MustCompile(`not a (snapshot|program) frame|frame is version|frame declares \d+ payload bytes|frame checksum mismatch`)

// frameDecoders decodes a frame of each kind.
var frameDecoders = map[byte]func([]byte) error{
	'S': func(b []byte) error { _, err := DecodeSnapshot(b); return err },
	'P': func(b []byte) error { _, err := DecodeProgram(b); return err },
}

// Every single-byte flip of a small snapshot frame and of a small program
// frame is refused by openFrame by name: none panics and none decodes.
func TestFrameByteFlips(t *testing.T) {
	g := randomCircuit(t, 91, 20)
	prog, err := Compile(g, handParts(g, 2, func(sink string) int { return len(sink) % 2 }), Config{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(prog)
	e.Run(3)
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	pblob, err := EncodeProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	for kind, blob := range map[byte][]byte{'S': snap.Encode(), 'P': pblob} {
		decode := frameDecoders[kind]
		if err := decode(blob); err != nil {
			t.Fatalf("kind %c: the clean frame is refused: %v", kind, err)
		}
		for i := range blob {
			flipped := append([]byte(nil), blob...)
			flipped[i] ^= 0xff
			if err := decode(flipped); err == nil || !frameRefusal.MatchString(err.Error()) {
				t.Fatalf("kind %c: byte %d of %d flipped: %v", kind, i, len(blob), err)
			}
		}
	}
}

// A frame that declares a payload over its kind's cap is refused on the
// declaration, before its length is compared with the blob and before any
// payload-sized allocation; one at the cap is opened.
func TestFrameCap(t *testing.T) {
	if _, err := openFrame(appendFrame('P', programVersion, make([]byte, 16)), 'P', programVersion, 16); err != nil {
		t.Fatalf("a payload at the cap: %v", err)
	}
	_, err := openFrame(appendFrame('P', programVersion, make([]byte, 17)), 'P', programVersion, 16)
	if err == nil || !strings.Contains(err.Error(), "over its cap of 16") {
		t.Fatalf("a payload one byte over the cap: %v", err)
	}
	versions := map[byte]byte{'S': SnapshotVersion, 'P': programVersion}
	for kind, decode := range frameDecoders {
		huge := binary.LittleEndian.AppendUint64([]byte{'R', 'C', 'F', 'R', kind, versions[kind]}, 1<<40)
		huge = append(huge, make([]byte, 16)...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decode(huge)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "over its cap") {
			t.Errorf("kind %c: a %d-byte frame declaring 1 TiB: %v", kind, len(huge), err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<16 {
			t.Errorf("kind %c: refusing a frame declaring 1 TiB allocated %d bytes", kind, n)
		}
	}
}
