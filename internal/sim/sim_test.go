package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/cgraph"
	"repro/internal/firrtl"
	"repro/internal/genckt"
)

// randomCircuit builds a random synchronous circuit exercising the full
// primitive set (signed/unsigned, narrow and wide widths, memories) for
// differential testing against the Reference evaluator. The generator body
// lives in internal/genckt (genckt.Classic preserves the historical rng
// consumption order, so all seeds used below keep their circuits).
func randomCircuit(t testing.TB, seed int64, size int) *cgraph.Graph {
	t.Helper()
	g, err := genckt.Classic(seed, size)
	if err != nil {
		t.Fatalf("genckt.Classic(%d, %d): %v", seed, size, err)
	}
	return g
}

// compareState checks that an engine and the reference agree on every
// register, output, and memory word.
func compareState(t *testing.T, g *cgraph.Graph, e *Engine, r *Reference, tag string) {
	t.Helper()
	for i := range g.Regs {
		name := g.Regs[i].Name
		ev, err := e.PeekReg(name)
		if err != nil {
			t.Fatalf("%s: peek reg %s: %v", tag, name, err)
		}
		rv, err := r.PeekReg(name)
		if err != nil {
			t.Fatalf("%s: ref peek reg %s: %v", tag, name, err)
		}
		if !bitvec.Eq(ev, rv) {
			t.Fatalf("%s: reg %s mismatch: engine=%v ref=%v", tag, name, ev, rv)
		}
	}
	for _, o := range g.Outputs {
		name := g.Vs[o].Name
		ev, err := e.PeekOutputVec(name)
		if err != nil {
			t.Fatalf("%s: peek output %s: %v", tag, name, err)
		}
		rv, err := r.PeekOutput(name)
		if err != nil {
			t.Fatalf("%s: ref peek output %s: %v", tag, name, err)
		}
		if !bitvec.Eq(ev, rv) {
			t.Fatalf("%s: output %s mismatch: engine=%v ref=%v", tag, name, ev, rv)
		}
	}
	for mi := range g.Mems {
		name := g.Mems[mi].Name
		for a := 0; a < g.Mems[mi].Depth; a++ {
			rv, _ := r.PeekMem(name, a)
			ev, err := e.PeekMemVec(name, a)
			if err != nil {
				t.Fatalf("%s: peek mem: %v", tag, err)
			}
			if !bitvec.Eq(ev, rv) {
				t.Fatalf("%s: mem %s[%d] mismatch: engine=%v ref=%v", tag, name, a, ev, rv)
			}
		}
	}
}

func TestSerialMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			g := randomCircuit(t, seed, 60)
			for _, opt := range []int{0, 2} {
				prog, err := Compile(g, SerialSpec(g), Config{OptLevel: opt})
				if err != nil {
					t.Fatalf("compile O%d: %v", opt, err)
				}
				eng := NewEngine(prog)
				ref := NewReference(g)
				rng := rand.New(rand.NewSource(seed * 77))
				for cyc := 0; cyc < 25; cyc++ {
					v1 := rng.Uint64()
					w := bitvec.New(70)
					for j := range w.Words {
						w.Words[j] = rng.Uint64()
					}
					w = bitvec.ZeroExtend(70, w)
					if err := eng.PokeInput("in1", v1); err != nil {
						t.Fatal(err)
					}
					if err := eng.PokeInputVec("in2", w); err != nil {
						t.Fatal(err)
					}
					if err := ref.PokeInputUint("in1", v1); err != nil {
						t.Fatal(err)
					}
					if err := ref.PokeInput("in2", w); err != nil {
						t.Fatal(err)
					}
					eng.Run(1)
					ref.Step()
					compareState(t, g, eng, ref, fmt.Sprintf("O%d cycle %d", opt, cyc))
				}
			}
		})
	}
}

func TestCounterBehavior(t *testing.T) {
	src := `
circuit C {
  module C {
    input  en : UInt<1>
    output o  : UInt<8>
    reg r : UInt<8> init 250
    node nx = tail(add(r, UInt<8>(1)), 1)
    r <= mux(en, nx, r)
    o <= r
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
	prog, err := Compile(g, SerialSpec(g), Config{})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(prog)
	if err := e.PokeInput("en", 1); err != nil {
		t.Fatal(err)
	}
	e.Run(10) // register: 250 + 10 = 260 mod 256 = 4
	rv, err := e.PeekReg("r")
	if err != nil {
		t.Fatal(err)
	}
	if rv.Uint64() != 4 {
		t.Fatalf("counter reg = %d, want 4 (wraparound)", rv.Uint64())
	}
	// Combinational outputs reflect the state the last evaluation saw
	// (cycle-start state), standard full-cycle semantics: one behind the
	// post-edge register value.
	v, err := e.PeekOutput("o")
	if err != nil {
		t.Fatal(err)
	}
	if v != 3 {
		t.Fatalf("counter output = %d, want 3 (eval-time state)", v)
	}
	// Disable: holds.
	if err := e.PokeInput("en", 0); err != nil {
		t.Fatal(err)
	}
	e.Run(5)
	v, _ = e.PeekOutput("o")
	if v != 4 {
		t.Fatalf("counter output while disabled = %d, want 4", v)
	}
	// Reset restores init.
	e.Reset()
	rv, _ = e.PeekReg("r")
	if rv.Uint64() != 250 {
		t.Fatalf("reset reg = %d, want 250", rv.Uint64())
	}
}

// portsSrc has a narrow and a 70-bit value of every accessor kind: input,
// output, register and memory.
const portsSrc = `
circuit T {
  module T {
    input n  : UInt<8>
    input w  : UInt<70>
    output o : UInt<8>
    output q : UInt<70>
    reg r : UInt<70> init 0
    mem m : UInt<70>[2]
    r <= xor(w, r)
    write(m, bits(n, 0, 0), w, UInt<1>(1))
    o <= n
    q <= r
  }
}
`

// Every Engine accessor error names its cause: a missing name and a narrow
// accessor on a wide value are distinct errors, and narrow accessors refuse
// wide values instead of truncating them.
func TestEngineAPIErrors(t *testing.T) {
	e := NewEngine(compileSrc(t, portsSrc))
	errOf := func(_ any, err error) error { return err }
	for _, tc := range []struct {
		what string
		err  error
		want string
	}{
		{"poke missing input", e.PokeInput("nope", 1), `no input "nope"`},
		{"narrow poke of wide input", e.PokeInput("w", 1), "use PokeInputVec"},
		{"vec poke of missing input", e.PokeInputVec("nope", bitvec.New(8)), `no input "nope"`},
		{"peek missing output", errOf(e.PeekOutput("nope")), `no output "nope"`},
		{"narrow peek of wide output", errOf(e.PeekOutput("q")), "use PeekOutputVec"},
		{"vec peek of missing output", errOf(e.PeekOutputVec("nope")), `no output "nope"`},
		{"peek missing register", errOf(e.PeekReg("nope")), `no register "nope"`},
		{"peek missing memory", errOf(e.PeekMem("nope", 0)), `no memory "nope"`},
		{"narrow peek of wide memory", errOf(e.PeekMem("m", 0)), "use PeekMemVec"},
		{"vec peek out of range", errOf(e.PeekMemVec("m", 2)), "address 2 out of range"},
	} {
		if tc.err == nil || !strings.Contains(tc.err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.what, tc.err, tc.want)
		}
	}
}

// RunProfiled of a non-positive cycle count simulates nothing and returns an
// empty profile.
func TestRunProfiledNonPositive(t *testing.T) {
	e := NewEngine(compileSrc(t, portsSrc))
	for _, n := range []int{-1, 0} {
		if got := e.RunProfiled(n); len(got) != 0 {
			t.Errorf("RunProfiled(%d) has %d cycles", n, len(got))
		}
	}
	if e.Cycles() != 0 {
		t.Errorf("non-positive RunProfiled advanced %d cycles", e.Cycles())
	}
}

// Narrow and 70-bit values round trip through the Engine's port, register
// and memory accessors. (The name dates from a task-level engine that once
// shared this port plumbing.)
func TestTaskEnginePortsMatchEngine(t *testing.T) {
	e := NewEngine(compileSrc(t, portsSrc))
	w := bitvec.FromUint64(70, 0x1234)
	if err := e.PokeInput("n", 0x1a5); err != nil {
		t.Fatal(err)
	}
	if err := e.PokeInputVec("w", w); err != nil {
		t.Fatal(err)
	}
	e.Run(1)
	if o, err := e.PeekOutput("o"); err != nil || o != 0xa5 {
		t.Errorf("output o = %#x, %v, want 0xa5", o, err)
	}
	if r, err := e.PeekReg("r"); err != nil || !bitvec.Eq(r, w) {
		t.Errorf("register r = %v, %v, want %v", r, err, w)
	}
	if m, err := e.PeekMemVec("m", 1); err != nil || !bitvec.Eq(m, w) {
		t.Errorf("PeekMemVec(m, 1) = %v, %v, want %v", m, err, w)
	}
	// Outputs show the registers as they were before the cycle's update, so
	// q carries r's new value one cycle later.
	e.Run(1)
	if q, err := e.PeekOutputVec("q"); err != nil || !bitvec.Eq(q, w) {
		t.Errorf("PeekOutputVec(q) = %v, %v, want %v", q, err, w)
	}
}

func TestOptimizerShrinksCode(t *testing.T) {
	g := randomCircuit(t, 5, 80)
	p0, err := Compile(g, SerialSpec(g), Config{OptLevel: 0})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Compile(g, SerialSpec(g), Config{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if p2.TotalInstrs() >= p0.TotalInstrs() {
		t.Fatalf("O2 (%d instrs) should be smaller than O0 (%d)", p2.TotalInstrs(), p0.TotalInstrs())
	}
}

func TestBarrier(t *testing.T) {
	const n = 8
	b := NewBarrier(n)
	var counters [n]int
	done := make(chan struct{})
	for i := 0; i < n; i++ {
		go func(i int) {
			var crossing uint32
			for round := 0; round < 100; round++ {
				counters[i]++
				b.Wait(&crossing)
				// After the barrier every participant must have finished
				// the same round.
				for j := 0; j < n; j++ {
					if counters[j] < round+1 {
						panic("barrier violated")
					}
				}
				b.Wait(&crossing)
			}
			if i == 0 {
				close(done)
			}
		}(i)
	}
	<-done
}
