package sim

import (
	"testing"

	"repro/internal/bitvec"
	"repro/internal/cgraph"
	"repro/internal/firrtl"
)

// TestOptimizeWideProducerMask is the regression for a fuzz-found O2
// miscompile (difftest crasher wide-producer-mask.fir): O2 copy propagation
// treated the meaningless Dst/Mask fields of the boxed wide instruction
// that computed bits(in1, 15, 0) as a definition of local temp 0 with
// produced-mask 0, so the following tail (masked copy) was aliased away and
// the memory write stored the unmasked 16-bit value instead of the 4-bit
// tail. The bits now lower to word-level code the optimising emitter sees
// whole, and it reads no definition from an OpMemWr (definesDst).
func TestOptimizeWideProducerMask(t *testing.T) {
	src := `
circuit Gen {
  module Gen {
    input in0 : UInt<1>
    input in1 : UInt<100>
    reg r0 : SInt<1> init 0
    reg r3 : UInt<1> init 0
    mem m0 : UInt<23>[8]
    node n30 = tail(bits(in1, 15, 0), 12)
    r0 <= SInt<1>(0)
    r3 <= in0
    write(m0, pad(asUInt(r0), 3), pad(n30, 23), r3)
  }
}
`
	c, err := firrtl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := firrtl.Check(c); err != nil {
		t.Fatal(err)
	}
	fc, _ := firrtl.Flatten(c)
	lc, _ := firrtl.Lower(fc)
	g, err := cgraph.Build(lc)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Compile(g, SerialSpec(g), Config{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(p2)
	ref := NewReference(g)
	in1 := bitvec.FromUint64(100, 0x3c2c)
	one := bitvec.FromUint64(1, 1)
	for cyc := 0; cyc < 2; cyc++ {
		if err := e.PokeInputVec("in0", one); err != nil {
			t.Fatal(err)
		}
		if err := e.PokeInputVec("in1", in1); err != nil {
			t.Fatal(err)
		}
		ref.PokeInput("in0", one)
		ref.PokeInput("in1", in1)
		e.Run(1)
		ref.Step()
	}
	got, err := e.PeekMemVec("m0", 0)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ref.PeekMem("m0", 0)
	if !bitvec.Eq(got, want) {
		t.Fatalf("m0[0] = %v, want %v (tail mask dropped by O2)", got, want)
	}
	if got.Uint64() != 0xc {
		t.Fatalf("m0[0] = %v, want 23'hc", got)
	}
}

// TestMixedKindBitwiseSignExtension is the regression for a second
// fuzz-found miscompile (difftest crasher mixed-kind-bitwise.fir): and/or/
// xor are the one primitive family that admits mixed-kind operands, but
// the narrow compiler decided whether to sign-extend from the first
// argument's kind alone, so or(UInt<32>, SInt<22>) zero-extended the
// signed operand instead of sign-extending it to the result width.
func TestMixedKindBitwiseSignExtension(t *testing.T) {
	src := `
circuit Gen {
  module Gen {
    input a : UInt<8>
    output oOr  : UInt<32>
    output oAnd : UInt<32>
    output oXor : UInt<32>
    node s = asSInt(a)
    oOr  <= or(UInt<32>(0), s)
    oAnd <= and(UInt<32>(4294967295), s)
    oXor <= xor(UInt<32>(0), s)
  }
}
`
	c, err := firrtl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := firrtl.Check(c); err != nil {
		t.Fatal(err)
	}
	fc, _ := firrtl.Flatten(c)
	lc, _ := firrtl.Lower(fc)
	g, err := cgraph.Build(lc)
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []int{0, 2} {
		p, err := Compile(g, SerialSpec(g), Config{OptLevel: opt})
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(p)
		ref := NewReference(g)
		// 0x80 is negative as SInt<8>: every bitwise result must see it
		// sign-extended to 32 bits (0xffffff80).
		if err := e.PokeInput("a", 0x80); err != nil {
			t.Fatal(err)
		}
		ref.PokeInputUint("a", 0x80)
		e.Run(1)
		ref.Step()
		for _, name := range []string{"oOr", "oAnd", "oXor"} {
			got, err := e.PeekOutput(name)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := ref.PeekOutput(name)
			if got != want.Uint64() {
				t.Errorf("O%d %s = %#x, want %#x", opt, name, got, want.Uint64())
			}
		}
		if got, _ := e.PeekOutput("oOr"); got != 0xffffff80 {
			t.Errorf("O%d oOr = %#x, want 0xffffff80 (signed operand sign-extends)", opt, got)
		}
	}
}
