package sim

import (
	"testing"

	"repro/internal/cgraph"
	"repro/internal/firrtl"
)

// buildGraph compiles a source snippet to a graph (mirrors sim_test.go
// helpers but kept local so this file stands alone).
func membytesGraph(t *testing.T, src string) *cgraph.Graph {
	t.Helper()
	c, err := firrtl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := firrtl.Check(c); err != nil {
		t.Fatal(err)
	}
	fc, err := firrtl.Flatten(c)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := firrtl.Lower(fc)
	if err != nil {
		t.Fatal(err)
	}
	g, err := cgraph.Build(lc)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

const membytesSrc = `
circuit MB {
  module MB {
    input  in  : UInt<8>
    output out : UInt<8>
    reg a : UInt<8> init 1
    reg b : UInt<8> init 2
    a <= tail(add(a, in), 1)
    b <= xor(b, a)
    out <= xor(a, b)
  }
}
`

func TestMemBytesAccountsProgramFootprint(t *testing.T) {
	g := membytesGraph(t, membytesSrc)
	p, err := Compile(g, SerialSpec(g), Config{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := p.MemBytes()
	if got <= 0 {
		t.Fatalf("MemBytes = %d, want > 0", got)
	}
	// The code stream alone is a hard floor on the footprint.
	var codeBytes int64
	for _, th := range p.Threads {
		codeBytes += int64(len(th.Code)) * int64(InstrBytes)
	}
	if got < codeBytes {
		t.Errorf("MemBytes %d < code bytes %d", got, codeBytes)
	}
	// Deterministic: same program, same accounting.
	if again := p.MemBytes(); again != got {
		t.Errorf("MemBytes not stable: %d then %d", got, again)
	}
}

func TestMemBytesGrowsWithDesign(t *testing.T) {
	small := membytesGraph(t, membytesSrc)
	ps, err := Compile(small, SerialSpec(small), Config{})
	if err != nil {
		t.Fatal(err)
	}
	// A design with strictly more state and logic must charge more.
	big := membytesGraph(t, `
circuit MBBig {
  module MBBig {
    input  in  : UInt<8>
    output out : UInt<8>
    reg a : UInt<8> init 1
    reg b : UInt<8> init 2
    reg c : UInt<8> init 3
    reg d : UInt<8> init 4
    reg e : UInt<8> init 5
    a <= tail(add(a, in), 1)
    b <= xor(b, a)
    c <= tail(add(c, b), 1)
    d <= xor(d, c)
    e <= tail(add(e, d), 1)
    out <= xor(xor(a, b), xor(c, xor(d, e)))
  }
}
`)
	pb, err := Compile(big, SerialSpec(big), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if pb.MemBytes() <= ps.MemBytes() {
		t.Errorf("bigger design charges %d <= smaller %d", pb.MemBytes(), ps.MemBytes())
	}
}

func TestStateBytesPositiveAndSeparate(t *testing.T) {
	g := membytesGraph(t, membytesSrc)
	p, err := Compile(g, SerialSpec(g), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if p.StateBytes() <= 0 {
		t.Fatalf("StateBytes = %d, want > 0", p.StateBytes())
	}
	// Per-engine state must at least cover the global word array.
	if p.StateBytes() < int64(p.GlobalWords)*8 {
		t.Errorf("StateBytes %d < global words %d*8", p.StateBytes(), p.GlobalWords)
	}
}

// StateBytes is what NewEngine allocates: a serial engine keeps the whole
// layout and one copy of the memories; a multi-threaded one keeps each
// thread's prefix of the layout, its own copy of each memory column it
// holds and two parities of every exchange buffer.
func TestStateBytesCountsBothViews(t *testing.T) {
	g := randomCircuit(t, 5, 60)
	serial, err := Compile(g, SerialSpec(g), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(serial.StateWords)*8 + serial.memBytes(); serial.StateBytes() != want {
		t.Errorf("serial: StateBytes %d, the layout plus one copy of the memories is %d", serial.StateBytes(), want)
	}
	par := partitioned(t, g, 3, 5)
	e := NewEngine(par)
	holds, _ := par.memHolders()
	var allocated int64
	for _, st := range e.st {
		allocated += int64(len(st)) * 8
	}
	copies := 0
	for th, gs := range e.gs {
		for m, col := range gs.mems {
			if (col != nil) != holds[th][m] {
				t.Errorf("thread %d: column %d allocated %v, held %v", th, m, col != nil, holds[th][m])
			}
			if col != nil {
				copies++
			}
			allocated += int64(len(col)) * 8
		}
	}
	if copies < len(par.Mems) {
		t.Errorf("3-thread engine keeps %d copies of %d memory columns", copies, len(par.Mems))
	}
	exchanged := 0
	for w := range e.xbuf {
		for r := range e.xbuf[w] {
			exchanged += len(par.Exchange[w][r])
			for _, buf := range e.xbuf[w][r] {
				allocated += int64(len(buf)) * 8
			}
		}
	}
	if exchanged == 0 {
		t.Error("3-thread engine exchanges no words")
	}
	if par.StateBytes() != allocated {
		t.Errorf("3 threads: StateBytes %d, the engine allocates %d", par.StateBytes(), allocated)
	}
}
