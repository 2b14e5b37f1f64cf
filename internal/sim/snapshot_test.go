package sim

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/costmodel"
)

// randomInputs builds one cycle of random stimulus for every input port.
func randomInputs(p *Program, rng *rand.Rand) map[string]bitvec.Vec {
	vals := make(map[string]bitvec.Vec, len(p.Inputs))
	for _, ps := range p.Inputs {
		w := bitvec.New(ps.Width)
		for j := range w.Words {
			w.Words[j] = rng.Uint64()
		}
		vals[ps.Name] = bitvec.ZeroExtend(ps.Width, w)
	}
	return vals
}

func pokeAll(t *testing.T, e *Engine, vals map[string]bitvec.Vec) {
	t.Helper()
	for name, v := range vals {
		if err := e.PokeInputVec(name, v); err != nil {
			t.Fatalf("poke %s: %v", name, err)
		}
	}
}

// compareEngines checks two engines agree on every register, output, and
// memory word.
func compareEngines(t *testing.T, a, b *Engine, tag string) {
	t.Helper()
	p := a.Program()
	for _, r := range p.Regs {
		av, _ := a.PeekReg(r.Name)
		bv, err := b.PeekReg(r.Name)
		if err != nil || !bitvec.Eq(av, bv) {
			t.Fatalf("%s: reg %s: %v vs %v (err %v)", tag, r.Name, av, bv, err)
		}
	}
	for _, o := range p.Outputs {
		av, _ := a.PeekOutputVec(o.Name)
		bv, err := b.PeekOutputVec(o.Name)
		if err != nil || !bitvec.Eq(av, bv) {
			t.Fatalf("%s: out %s: %v vs %v (err %v)", tag, o.Name, av, bv, err)
		}
	}
	for _, m := range p.Mems {
		for addr := 0; addr < m.Depth; addr++ {
			av, _ := a.PeekMemVec(m.Name, addr)
			bv, err := b.PeekMemVec(m.Name, addr)
			if err != nil || !bitvec.Eq(av, bv) {
				t.Fatalf("%s: mem %s[%d]: %v vs %v (err %v)", tag, m.Name, addr, av, bv, err)
			}
		}
	}
}

// TestSnapshotRoundTrip: run k cycles, checkpoint through the full wire
// encoding, restore onto a fresh engine, run k more on both — the restored
// engine must stay bit-identical to the uninterrupted one, serial and
// partitioned.
func TestSnapshotRoundTrip(t *testing.T) {
	for seed := int64(60); seed < 64; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			g := randomCircuit(t, seed, 70)
			for _, k := range []int{1, 3} {
				specs := SerialSpec(g)
				if k > 1 {
					res, err := core.Partition(g, core.Options{
						K: k, Seed: seed, Model: costmodel.Default(), Epsilon: 0.1,
					})
					if err != nil {
						t.Fatalf("partition k=%d: %v", k, err)
					}
					specs = partSpecs(res)
				}
				prog, err := Compile(g, specs, Config{OptLevel: 2})
				if err != nil {
					t.Fatalf("compile k=%d: %v", k, err)
				}
				control := NewEngine(prog)
				rng := rand.New(rand.NewSource(seed))
				const half = 8
				for cyc := 0; cyc < half; cyc++ {
					pokeAll(t, control, randomInputs(prog, rng))
					control.Run(1)
				}
				snap, err := control.Snapshot()
				if err != nil {
					t.Fatalf("snapshot: %v", err)
				}
				blob := snap.Encode()
				snap2, err := DecodeSnapshot(blob)
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				restored := NewEngine(prog)
				if err := restored.RestoreSnapshot(snap2); err != nil {
					t.Fatalf("restore: %v", err)
				}
				if restored.Cycles() != control.Cycles() {
					t.Fatalf("restored cycles %d, control %d", restored.Cycles(), control.Cycles())
				}
				compareEngines(t, control, restored, fmt.Sprintf("k=%d post-restore", k))
				if a, b := control.StateHash(), restored.StateHash(); a != b {
					t.Fatalf("k=%d: state hash %016x vs %016x after restore", k, a, b)
				}
				for cyc := 0; cyc < half; cyc++ {
					vals := randomInputs(prog, rng)
					pokeAll(t, control, vals)
					pokeAll(t, restored, vals)
					control.Run(1)
					restored.Run(1)
					compareEngines(t, control, restored, fmt.Sprintf("k=%d cycle=%d", k, cyc))
				}
			}
		})
	}
}

// TestSnapshotBatchLane: a batch lane's checkpoint restores onto a private
// engine AND onto a different lane of a different batch engine, both
// bit-identical to the source lane from then on. This is the service's
// batched-session migration path.
func TestSnapshotBatchLane(t *testing.T) {
	g := randomCircuit(t, 77, 70)
	prog, err := Compile(g, SerialSpec(g), Config{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	const lanes = 5
	be, err := NewBatchEngine(prog, lanes)
	if err != nil {
		t.Fatal(err)
	}
	rngs := make([]*rand.Rand, lanes)
	for l := range rngs {
		rngs[l] = rand.New(rand.NewSource(77*100 + int64(l)))
	}
	for cyc := 0; cyc < 8; cyc++ {
		for l := 0; l < lanes; l++ {
			for name, v := range randomInputs(prog, rngs[l]) {
				if err := be.PokeVec(l, name, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		be.Run(1)
	}
	const src = 2
	snap, err := be.SnapshotLane(src)
	if err != nil {
		t.Fatal(err)
	}
	snap2, err := DecodeSnapshot(snap.Encode())
	if err != nil {
		t.Fatal(err)
	}

	// Private-engine restore.
	priv := NewEngine(prog)
	if err := priv.RestoreSnapshot(snap2); err != nil {
		t.Fatal(err)
	}
	// Cross-lane restore into a second batch engine.
	be2, err := NewBatchEngine(prog, 3)
	if err != nil {
		t.Fatal(err)
	}
	const dst = 1
	if err := be2.RestoreLane(dst, snap2); err != nil {
		t.Fatal(err)
	}
	if be2.Cycles(dst) != be.Cycles(src) {
		t.Fatalf("restored lane cycles %d, source %d", be2.Cycles(dst), be.Cycles(src))
	}
	srcHash, err := be.StateHashLane(src)
	if err != nil {
		t.Fatal(err)
	}
	if h, _ := be2.StateHashLane(dst); h != srcHash {
		t.Fatalf("restored lane hash %016x, source %016x", h, srcHash)
	}
	if h := priv.StateHash(); h != srcHash {
		t.Fatalf("restored engine hash %016x, source %016x", h, srcHash)
	}

	// All three must evolve identically from here.
	rng := rand.New(rand.NewSource(999))
	for cyc := 0; cyc < 8; cyc++ {
		vals := randomInputs(prog, rng)
		for name, v := range vals {
			if err := be.PokeVec(src, name, v); err != nil {
				t.Fatal(err)
			}
			if err := be2.PokeVec(dst, name, v); err != nil {
				t.Fatal(err)
			}
		}
		pokeAll(t, priv, vals)
		be.Run(1)
		be2.Run(1)
		priv.Run(1)
		h0, _ := be.StateHashLane(src)
		h1, _ := be2.StateHashLane(dst)
		if h0 != h1 || h0 != priv.StateHash() {
			t.Fatalf("cycle %d: hashes diverged: lane %016x, restored lane %016x, engine %016x",
				cyc, h0, h1, priv.StateHash())
		}
	}
}

// TestSnapshotBytesAcrossEngines: a snapshot of one state encodes to the
// same bytes on an Engine and on any lane of a ×16 BatchEngine, serial
// and two-view, at an odd cycle count, because the dead-scratch frames
// are zeroed on capture.
func TestSnapshotBytesAcrossEngines(t *testing.T) {
	g := randomCircuit(t, 78, 70)
	serial, err := Compile(g, SerialSpec(g), Config{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Partition(g, core.Options{K: 2, Seed: 78, Model: costmodel.Default(), Epsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Compile(g, partSpecs(res), Config{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, prog := range []*Program{serial, par} {
		e := NewEngine(prog)
		be, err := NewBatchEngine(prog, BatchWidth)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(78))
		for cyc := 0; cyc < 7; cyc++ {
			vals := randomInputs(prog, rng)
			pokeAll(t, e, vals)
			for l := 0; l < BatchWidth; l++ {
				for name, v := range vals {
					if err := be.PokeVec(l, name, v); err != nil {
						t.Fatal(err)
					}
				}
			}
			e.Run(1)
			be.Run(1)
		}
		snap, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		want := snap.Encode()
		for _, l := range []int{0, BatchWidth - 1} {
			ls, err := be.SnapshotLane(l)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ls.Encode(), want) {
				t.Fatalf("%d thread(s): lane %d snapshot bytes differ from the engine's", prog.NumThreads, l)
			}
		}
	}
}

// TestSnapshotGuards: every guard fires — wrong version, wrong program,
// truncated blob, corrupted byte, trailing garbage.
func TestSnapshotGuards(t *testing.T) {
	g := randomCircuit(t, 88, 60)
	prog, err := Compile(g, SerialSpec(g), Config{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(prog)
	e.Run(3)
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Version gate.
	bad := *snap
	bad.Version = SnapshotVersion + 1
	if err := NewEngine(prog).RestoreSnapshot(&bad); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("restore of a future layout version: %v, want ErrSnapshotVersion", err)
	}
	if _, err := DecodeSnapshot(bad.Encode()); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("decode of a future layout version: %v, want ErrSnapshotVersion", err)
	}

	// Fingerprint gate: a different circuit's engine must refuse.
	g2 := randomCircuit(t, 89, 60)
	prog2, err := Compile(g2, SerialSpec(g2), Config{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := NewEngine(prog2).RestoreSnapshot(snap); err == nil {
		t.Fatal("restore accepted a snapshot from a different program")
	}

	// Truncation and corruption die at decode (checksum), not at restore.
	blob := snap.Encode()
	if _, err := DecodeSnapshot(blob[:len(blob)-9]); err == nil {
		t.Fatal("decode accepted a truncated blob")
	}
	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := DecodeSnapshot(flipped); err == nil {
		t.Fatal("decode accepted a corrupted blob")
	}
	if _, err := DecodeSnapshot(append(append([]byte(nil), blob...), 0xff)); err == nil {
		t.Fatal("decode accepted trailing garbage")
	}

}

// TestEncodeProgramRoundTrip: a compiled program survives the peer-fetch
// wire format — identical fingerprint, working name lookups, and an engine
// over the decoded program bit-identical to one over the original.
func TestEncodeProgramRoundTrip(t *testing.T) {
	for seed := int64(60); seed < 63; seed++ {
		g := randomCircuit(t, seed, 70)
		res, err := core.Partition(g, core.Options{K: 3, Seed: seed, Model: costmodel.Default(), Epsilon: 0.1})
		var specs []PartSpec
		if err != nil {
			specs = SerialSpec(g)
		} else {
			specs = partSpecs(res)
		}
		prog, err := Compile(g, specs, Config{OptLevel: 2})
		if err != nil {
			t.Fatal(err)
		}
		blob, err := EncodeProgram(prog)
		if err != nil {
			t.Fatal(err)
		}
		prog2, err := DecodeProgram(blob)
		if err != nil {
			t.Fatal(err)
		}
		if prog2.Fingerprint() != prog.Fingerprint() {
			t.Fatalf("seed %d: fingerprint changed across the wire", seed)
		}
		for _, ps := range prog.Inputs {
			if _, ok := prog2.Input(ps.Name); !ok {
				t.Fatalf("seed %d: decoded program lost input %q", seed, ps.Name)
			}
		}
		for _, r := range prog.Regs {
			if _, ok := prog2.Reg(r.Name); !ok {
				t.Fatalf("seed %d: decoded program lost register %q", seed, r.Name)
			}
		}
		a, b := NewEngine(prog), NewEngine(prog2)
		rng := rand.New(rand.NewSource(seed))
		for cyc := 0; cyc < 10; cyc++ {
			vals := randomInputs(prog, rng)
			pokeAll(t, a, vals)
			pokeAll(t, b, vals)
			a.Run(1)
			b.Run(1)
			if a.StateHash() != b.StateHash() {
				t.Fatalf("seed %d cycle %d: decoded program diverged", seed, cyc)
			}
		}
		// Corrupted wire blobs are rejected.
		if len(blob) > 10 {
			bad := append([]byte(nil), blob...)
			bad[len(bad)-5] ^= 0x01
			if _, err := DecodeProgram(bad); err == nil {
				t.Fatalf("seed %d: decode accepted a corrupted program blob", seed)
			}
		}
	}
}

// TestSnapshotVersion1Refused: a blob the version-1 format wrote (boxed
// wide sections; testdata/snapshot-v1.bin is the encoded state of
// TestProtocolSnapshotOddParity's engine under that format) passes the
// checksum and is then refused by name, not misread as version 2.
func TestSnapshotVersion1Refused(t *testing.T) {
	blob, err := os.ReadFile("testdata/snapshot-v1.bin")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSnapshot(blob); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("decode of a version-1 blob: %v, want ErrSnapshotVersion", err)
	}
}
