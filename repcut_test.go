package repcut

import "testing"

const counterSrc = `
circuit Counter {
  module Counter {
    input  en  : UInt<1>
    output out : UInt<16>
    reg r : UInt<16> init 0
    node nx = tail(add(r, UInt<16>(3)), 1)
    r <= mux(en, nx, r)
    out <= r
  }
}
`

func TestPublicAPIFlow(t *testing.T) {
	c, err := ParseCircuit(counterSrc)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Elaborate(c)
	if err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.RegWrites != 1 {
		t.Fatalf("stats: %+v", st)
	}
	s, err := d.CompileSerial()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PokeInput("en", 1); err != nil {
		t.Fatal(err)
	}
	s.Run(10)
	rv, err := s.PeekReg("r")
	if err != nil {
		t.Fatal(err)
	}
	if rv.Uint64() != 30 {
		t.Fatalf("counter = %d, want 30", rv.Uint64())
	}
}

func TestParallelFacadeMatchesSerial(t *testing.T) {
	c, err := ParseCircuit(counterSrc)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Elaborate(c)
	if err != nil {
		t.Fatal(err)
	}
	ser, err := d.CompileSerial()
	if err != nil {
		t.Fatal(err)
	}
	par, err := d.CompileParallel(Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if par.Report == nil || par.Report.Threads != 2 {
		t.Fatalf("missing partition report")
	}
	for _, e := range []*Simulator{ser, par} {
		if err := e.PokeInput("en", 1); err != nil {
			t.Fatal(err)
		}
		e.Run(25)
	}
	a, _ := ser.PeekReg("r")
	b, _ := par.PeekReg("r")
	if a.Uint64() != b.Uint64() {
		t.Fatalf("parallel facade diverges: %d vs %d", a.Uint64(), b.Uint64())
	}
}

func TestOptionsValidation(t *testing.T) {
	c, _ := ParseCircuit(counterSrc)
	d, _ := Elaborate(c)
	if _, err := d.CompileParallel(Options{Threads: 0}); err == nil {
		t.Fatal("Threads=0 must error")
	}
	if _, err := ParseCircuit("circuit X {"); err == nil {
		t.Fatal("bad source must error")
	}
}

func TestCompileParallelVerify(t *testing.T) {
	c, err := ParseCircuit(counterSrc)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Elaborate(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{1, 2} {
		s, err := d.CompileParallel(Options{Threads: threads, Verify: true})
		if err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if s.Verification == nil {
			t.Fatalf("threads=%d: no verification report attached", threads)
		}
		if err := s.Verification.Err(); err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
	}
	// Without the flag the report must stay nil (no analysis cost paid).
	s, err := d.CompileParallel(Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.Verification != nil {
		t.Fatal("verification ran without Options.Verify")
	}
}
