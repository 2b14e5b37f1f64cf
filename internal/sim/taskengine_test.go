package sim

import (
	"testing"

	"repro/internal/bitvec"
)

const taskEngineSrc = `
circuit T {
  module T {
    input n  : UInt<8>
    input w  : UInt<70>
    output o : UInt<8>
    output q : UInt<70>
    reg r : UInt<70> init 0
    r <= xor(w, r)
    o <= n
    q <= r
  }
}
`

// newTaskPair builds an Engine and a one-task TaskEngine over the same
// serial program.
func newTaskPair(t *testing.T) (*Engine, *TaskEngine) {
	t.Helper()
	g := graphOf(t, taskEngineSrc)
	prog, err := Compile(g, SerialSpec(g), Config{OptLevel: 2, Shared: true})
	if err != nil {
		t.Fatal(err)
	}
	plan := TaskPlan{NumTasks: 1, PerThread: [][]TaskRange{{{ID: 0, End: len(prog.Threads[0].Code)}}}}
	te, err := NewTaskEngine(prog, plan)
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(prog), te
}

// TaskEngine and Engine share their port plumbing, so every port accessor
// answers with the same value or the same error text — in particular a
// missing port and a narrow accessor on a wide port are distinct errors.
func TestTaskEnginePortsMatchEngine(t *testing.T) {
	e, te := newTaskPair(t)
	sameErr := func(what string, a, b error) {
		t.Helper()
		if a == nil || b == nil || a.Error() != b.Error() {
			t.Errorf("%s: Engine error %v, TaskEngine error %v", what, a, b)
		}
	}
	sameErr("poke missing input", e.PokeInput("nope", 1), te.PokeInput("nope", 1))
	sameErr("narrow poke of wide input", e.PokeInput("w", 1), te.PokeInput("w", 1))
	sameErr("vec poke of missing input", e.PokeInputVec("nope", bitvec.New(8)), te.PokeInputVec("nope", bitvec.New(8)))
	_, err1 := e.PeekOutput("nope")
	_, err2 := te.PeekOutput("nope")
	sameErr("peek missing output", err1, err2)
	_, err1 = e.PeekOutput("q")
	_, err2 = te.PeekOutput("q")
	sameErr("narrow peek of wide output", err1, err2)
	_, err1 = e.PeekReg("nope")
	_, err2 = te.PeekRegVec("nope")
	sameErr("peek missing register", err1, err2)

	w := bitvec.FromUint64(70, 0x1234)
	for _, poke := range []func() error{
		func() error { return e.PokeInput("n", 0x1a5) },
		func() error { return te.PokeInput("n", 0x1a5) },
		func() error { return e.PokeInputVec("w", w) },
		func() error { return te.PokeInputVec("w", w) },
	} {
		if err := poke(); err != nil {
			t.Fatal(err)
		}
	}
	e.Run(1)
	te.Run(1)
	o1, _ := e.PeekOutput("o")
	o2, _ := te.PeekOutput("o")
	if o1 != 0xa5 || o2 != 0xa5 {
		t.Errorf("output o: Engine %#x, TaskEngine %#x, want 0xa5", o1, o2)
	}
	r1, _ := e.PeekReg("r")
	r2, _ := te.PeekRegVec("r")
	r3, _ := te.PeekReg("r")
	if !bitvec.Eq(r1, w) || !bitvec.Eq(r2, w) || r3 != 0x1234 {
		t.Errorf("register r: Engine %v, TaskEngine %v / %#x, want %v", r1, r2, r3, w)
	}
}

// RunProfiled of a non-positive cycle count simulates nothing and returns
// an empty profile on both engines.
func TestRunProfiledNonPositive(t *testing.T) {
	e, te := newTaskPair(t)
	for _, n := range []int{-1, 0} {
		if got := e.RunProfiled(n); len(got) != 0 {
			t.Errorf("Engine.RunProfiled(%d) has %d cycles", n, len(got))
		}
		if got := te.RunProfiled(n); len(got) != 0 {
			t.Errorf("TaskEngine.RunProfiled(%d) has %d cycles", n, len(got))
		}
	}
	if e.Cycles() != 0 || te.Cycles() != 0 {
		t.Errorf("cycles advanced: Engine %d, TaskEngine %d", e.Cycles(), te.Cycles())
	}
}
