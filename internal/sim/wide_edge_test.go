package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/firrtl"
)

// wideEdgeEngine compiles src and returns an engine over it; each edge
// case asserts literal expected values.
func wideEdgeEngine(t *testing.T, src string) *Engine {
	t.Helper()
	return NewEngine(compileSrc(t, src))
}

// A narrow memory addressed by a wide value is indexed by the address's
// low word: reads must come back as narrow words, the enable must gate, and
// out-of-range addresses must read zero and drop the write at commit.
func TestWideAddrNarrowMemory(t *testing.T) {
	src := `
circuit W {
  module W {
    input a  : UInt<70>
    input d  : UInt<16>
    input en : UInt<1>
    output o : UInt<16>
    mem m : UInt<16>[8]
    node rd = read(m, a)
    write(m, a, d, en)
    o <= rd
  }
}
`
	e := wideEdgeEngine(t, src)
	addr := func(v uint64) bitvec.Vec { return bitvec.FromUint64(70, v) }
	step := func(a bitvec.Vec, d, en uint64) {
		t.Helper()
		if err := e.PokeInputVec("a", a); err != nil {
			t.Fatal(err)
		}
		if err := e.PokeInput("d", d); err != nil {
			t.Fatal(err)
		}
		if err := e.PokeInput("en", en); err != nil {
			t.Fatal(err)
		}
		e.Run(1)
	}
	check := func(want uint64, what string) {
		t.Helper()
		got, err := e.PeekOutput("o")
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: got %#x, want %#x", what, got, want)
		}
	}

	step(addr(3), 0x1234, 1) // write m[3]=0x1234
	step(addr(3), 0, 0)      // en=0: write gated off
	check(0x1234, "read-back after gated write")

	// An out-of-range wide address reads zero and its
	// write is buffered but dropped at commit. (Addresses index by their low
	// 64 bits, so the OOB value must exceed the depth there.)
	step(addr(100), 0xffff, 1)
	check(0, "wide OOB read")
	step(addr(3), 0, 0)
	check(0x1234, "m[3] intact after OOB write")

	// In-range overwrite through a wide address still lands.
	step(addr(3), 0xbeef, 1)
	step(addr(3), 0, 0)
	check(0xbeef, "wide-path overwrite")
}

// OpMemRd past the end of a narrow memory returns zero, and the matching
// OpMemWr is dropped at commit.
func TestNarrowMemOutOfRangeBothModes(t *testing.T) {
	src := `
circuit N {
  module N {
    input a  : UInt<8>
    input d  : UInt<16>
    input en : UInt<1>
    output o : UInt<16>
    mem m : UInt<16>[4]
    node rd = read(m, a)
    write(m, a, d, en)
    o <= rd
  }
}
`
	e := wideEdgeEngine(t, src)
	step := func(a, d, en uint64) {
		t.Helper()
		for name, v := range map[string]uint64{"a": a, "d": d, "en": en} {
			if err := e.PokeInput(name, v); err != nil {
				t.Fatal(err)
			}
		}
		e.Run(1)
	}
	check := func(want uint64, what string) {
		t.Helper()
		if got, _ := e.PeekOutput("o"); got != want {
			t.Fatalf("%s: got %#x, want %#x", what, got, want)
		}
	}

	step(2, 0x5a5a, 1) // write m[2]
	step(2, 0, 0)
	check(0x5a5a, "in-range read")

	step(200, 0x1111, 1) // address far past depth 4
	check(0, "OOB read returns zero")
	step(2, 0, 0)
	check(0x5a5a, "m[2] intact after OOB write")
}

// edgeExpr is one primitive application of the boundary table: op over the
// named inputs with constant arguments.
type edgeExpr struct {
	op     firrtl.PrimOp
	args   []string
	consts []int
}

func (x edgeExpr) String() string {
	parts := append([]string(nil), x.args...)
	for _, c := range x.consts {
		parts = append(parts, fmt.Sprint(c))
	}
	return fmt.Sprintf("%s(%s)", x.op, strings.Join(parts, ", "))
}

// edgeCircuit returns a circuit with one output per primitive application
// over inputs of the given kind: a and b (w bits), n (33 bits, a narrow
// operand widened per use), p and q (95 bits, the 95×95 mul), the mux
// select c and the dynamic shift amount s (UInt<7>, up to 127).
func edgeCircuit(t *testing.T, kind firrtl.Kind, w int) (string, []edgeExpr, map[string]firrtl.Type) {
	t.Helper()
	ty := func(width int) firrtl.Type { return firrtl.Type{Kind: kind, Width: width} }
	inputs := map[string]firrtl.Type{
		"a": ty(w), "b": ty(w), "n": ty(33), "p": ty(95), "q": ty(95),
		"c": firrtl.UInt(1), "s": firrtl.UInt(7),
	}
	var exprs []edgeExpr
	for _, op := range []firrtl.PrimOp{firrtl.OpAdd, firrtl.OpSub, firrtl.OpMul, firrtl.OpDiv, firrtl.OpRem,
		firrtl.OpLt, firrtl.OpLeq, firrtl.OpGt, firrtl.OpGeq, firrtl.OpEq, firrtl.OpNeq,
		firrtl.OpAnd, firrtl.OpOr, firrtl.OpXor, firrtl.OpCat} {
		for _, args := range [][]string{{"a", "b"}, {"a", "n"}, {"n", "a"}} {
			exprs = append(exprs, edgeExpr{op, args, nil})
		}
	}
	for _, op := range []firrtl.PrimOp{firrtl.OpNot, firrtl.OpNeg, firrtl.OpAndR, firrtl.OpOrR, firrtl.OpXorR,
		firrtl.OpAsUInt, firrtl.OpAsSInt, firrtl.OpCvt} {
		exprs = append(exprs, edgeExpr{op, []string{"a"}, nil})
	}
	a := []string{"a"}
	exprs = append(exprs,
		edgeExpr{firrtl.OpBits, a, []int{w - 1, w / 2}},
		edgeExpr{firrtl.OpBits, a, []int{w/2 + 3, 3}},
		edgeExpr{firrtl.OpBits, a, []int{w - 1, 0}},
		edgeExpr{firrtl.OpHead, a, []int{w/2 + 1}},
		edgeExpr{firrtl.OpTail, a, []int{1}},
		edgeExpr{firrtl.OpTail, a, []int{w / 2}},
		edgeExpr{firrtl.OpPad, a, []int{w + 40}},
		edgeExpr{firrtl.OpShl, a, []int{37}},
		edgeExpr{firrtl.OpShl, a, []int{64}},
		edgeExpr{firrtl.OpShr, a, []int{1}},
		edgeExpr{firrtl.OpShr, a, []int{w - 1}},
		edgeExpr{firrtl.OpShr, a, []int{64}},
		edgeExpr{firrtl.OpShr, a, []int{w + 5}},
		edgeExpr{firrtl.OpDshl, []string{"a", "s"}, nil},
		edgeExpr{firrtl.OpDshr, []string{"a", "s"}, nil},
		edgeExpr{firrtl.OpDshr, []string{"n", "s"}, nil},
		edgeExpr{firrtl.OpMux, []string{"c", "a", "b"}, nil},
		edgeExpr{firrtl.OpMux, []string{"c", "n", "a"}, nil},
		edgeExpr{firrtl.OpMul, []string{"p", "q"}, nil},
	)
	var sb strings.Builder
	sb.WriteString("circuit E {\n  module E {\n")
	for _, name := range []string{"a", "b", "n", "p", "q", "c", "s"} {
		fmt.Fprintf(&sb, "    input %s : %s\n", name, inputs[name])
	}
	for i, x := range exprs {
		ats := make([]firrtl.Type, len(x.args))
		for j, arg := range x.args {
			ats[j] = inputs[arg]
		}
		rt, err := firrtl.InferType(x.op, ats, x.consts)
		if err != nil {
			t.Fatalf("%s: %v", x, err)
		}
		fmt.Fprintf(&sb, "    output o%d : %s\n    o%d <= %s\n", i, rt, i, x)
	}
	sb.WriteString("  }\n}\n")
	return sb.String(), exprs, inputs
}

// edgeValue is operand pattern i at the given width: 0, 1, all ones, the
// sign bit alone, or random bits.
func edgeValue(rng *rand.Rand, i, width int) bitvec.Vec {
	v := bitvec.New(width)
	switch i % 5 {
	case 1:
		v.Words[0] = 1
	case 2:
		for k := range v.Words {
			v.Words[k] = ^uint64(0)
		}
	case 3:
		v.SetBit(width-1, 1)
	case 4:
		for k := range v.Words {
			v.Words[k] = rng.Uint64()
		}
	}
	return bitvec.ZeroExtend(width, v)
}

// TestWideBoundaryTable lowers every primitive at the word-boundary widths,
// UInt and SInt, and runs each application on an Engine and on a 5-lane
// BatchEngine against sim.Reference over every pair of operand patterns:
// the b = 0 rows are division and remainder by zero, and the shift amount
// walks 0, 63, 64, 65 and past.
func TestWideBoundaryTable(t *testing.T) {
	shifts := []uint64{0, 63, 64, 65, 1, 127, 100}
	for _, kind := range []firrtl.Kind{firrtl.KUInt, firrtl.KSInt} {
		for _, w := range []int{63, 64, 65, 127, 128, 129, 192} {
			t.Run(firrtl.Type{Kind: kind, Width: w}.String(), func(t *testing.T) {
				src, exprs, inputs := edgeCircuit(t, kind, w)
				g := graphOf(t, src)
				prog, err := Compile(g, SerialSpec(g), Config{OptLevel: 2})
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(w)))
				// stimulus i is operand pattern pair (i%5, i/5) for a and b.
				stimulus := make([]map[string]bitvec.Vec, 25)
				for i := range stimulus {
					pats := map[string]int{"a": i % 5, "b": i / 5, "n": i + 1, "p": i, "q": i / 5, "c": i}
					in := map[string]bitvec.Vec{"s": bitvec.FromUint64(7, shifts[i%len(shifts)])}
					for name, pat := range pats {
						in[name] = edgeValue(rng, pat, inputs[name].Width)
					}
					stimulus[i] = in
				}
				check := func(eng string, i int, peek func(string) (bitvec.Vec, error), ref *Reference) {
					t.Helper()
					for k, x := range exprs {
						name := fmt.Sprintf("o%d", k)
						got, err := peek(name)
						if err != nil {
							t.Fatal(err)
						}
						want, _ := ref.PeekOutput(name)
						if !bitvec.Eq(got, want) {
							in := stimulus[i]
							t.Fatalf("%s: %s with a=%v b=%v n=%v s=%v: got %v, want %v",
								eng, x, in["a"], in["b"], in["n"], in["s"], got, want)
						}
					}
				}
				poke := func(i int, engPoke func(string, bitvec.Vec) error, ref *Reference) {
					t.Helper()
					for name, v := range stimulus[i] {
						if err := engPoke(name, v); err != nil {
							t.Fatal(err)
						}
						if err := ref.PokeInput(name, v); err != nil {
							t.Fatal(err)
						}
					}
				}

				e, ref := NewEngine(prog), NewReference(g)
				for i := range stimulus {
					poke(i, e.PokeInputVec, ref)
					e.Run(1)
					ref.Step()
					check("engine", i, e.PeekOutputVec, ref)
				}

				const lanes = 5
				be, err := NewBatchEngine(prog, lanes)
				if err != nil {
					t.Fatal(err)
				}
				refs := make([]*Reference, lanes)
				for l := range refs {
					refs[l] = NewReference(g)
				}
				for step := 0; step < len(stimulus)/lanes; step++ {
					for l := range refs {
						poke(step*lanes+l, func(name string, v bitvec.Vec) error { return be.PokeVec(l, name, v) }, refs[l])
					}
					be.Run(1)
					for l, r := range refs {
						r.Step()
						check(fmt.Sprintf("batch lane %d", l), step*lanes+l,
							func(name string) (bitvec.Vec, error) { return be.PeekVec(l, name) }, r)
					}
				}
			})
		}
	}
}

// TestLowerStepBound: the quadratic lowerings (div/rem, mul, dynamic shift)
// are charged before any code is emitted, so a division of two 65536-bit
// values is a compile error instead of hundreds of millions of
// instructions, while the same shapes at moderate widths, and a dynamic
// shift whose narrow amount selects few word offsets, still compile.
func TestLowerStepBound(t *testing.T) {
	for _, tc := range []struct {
		expr     string
		w, outW  int
		compiles bool
	}{
		{"div(a, b)", 1024, 1024, true},
		{"div(a, b)", 65536, 65536, false},
		{"rem(a, b)", 65536, 65536, false},
		{"mul(a, b)", 4096, 8192, true},
		{"mul(a, b)", 16384, 32768, false},
		{"dshr(a, bits(b, 3, 0))", 65536, 65536, true},
		{"dshr(a, bits(b, 15, 0))", 65536, 65536, false},
	} {
		g := graphOf(t, fmt.Sprintf(`
circuit B {
  module B {
    input a : UInt<%d>
    input b : UInt<%d>
    output q : UInt<%d>
    q <= %s
  }
}`, tc.w, tc.w, tc.outW, tc.expr))
		_, err := Compile(g, SerialSpec(g), Config{})
		switch {
		case tc.compiles && err != nil:
			t.Errorf("%s at %d bits: %v", tc.expr, tc.w, err)
		case !tc.compiles && (err == nil || !strings.Contains(err.Error(), "word steps")):
			t.Errorf("%s at %d bits: err = %v, want the word-step bound", tc.expr, tc.w, err)
		}
	}
}
