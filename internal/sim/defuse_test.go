package sim

import (
	"slices"
	"strings"
	"testing"
)

// TestLinkedDefUse pins the def/use sets the verifier's scan is built on.
// Operands are flat state indices (here 1 is a global, 24 an immediate,
// 40–44 temps, 49–50 shadow words); memories keep their space-relative
// encoding.
func TestLinkedDefUse(t *testing.T) {
	lp := &LinkedProgram{}
	cases := []struct {
		name         string
		in           LInstr
		ndefs, nuses []uint32
		mdefs, muses []Loc
	}{
		{"nop", LInstr{Op: OpNop}, nil, nil, nil, nil},
		{"add", LInstr{Op: OpAdd, Dst: 44, A: 1, B: 24},
			[]uint32{44}, []uint32{1, 24}, nil, nil},
		{"copy-to-shadow", LInstr{Op: OpCopy, Dst: 50, A: 40},
			[]uint32{50}, []uint32{40}, nil, nil},
		{"mux", LInstr{Op: OpMux, Dst: 41, A: 42, B: 43, C: 44},
			[]uint32{41}, []uint32{42, 43, 44}, nil, nil},
		{"memrd", LInstr{Op: OpMemRd, Dst: 40, A: 41, Aux: 3},
			[]uint32{40}, []uint32{41}, nil, []Loc{{SpaceMem, 3}}},
		// A memory write's zero-value Dst must not read as a def of state
		// word 0; the def is the memory itself.
		{"memwr", LInstr{Op: OpMemWr, A: 41, B: 42, C: 43, Aux: 5},
			nil, []uint32{41, 42, 43}, []Loc{{SpaceMem, 5}}, nil},
		{"mulhi", LInstr{Op: OpMulHi, Dst: 44, A: 40, B: 41},
			[]uint32{44}, []uint32{40, 41}, nil, nil},
	}
	for _, c := range cases {
		nd, nu, md, mu := lp.LinkedDefUse(&c.in, nil, nil, nil, nil)
		if !slices.Equal(nd, c.ndefs) || !slices.Equal(nu, c.nuses) {
			t.Errorf("%s: state defs/uses = %v/%v, want %v/%v", c.name, nd, nu, c.ndefs, c.nuses)
		}
		if !slices.Equal(md, c.mdefs) || !slices.Equal(mu, c.muses) {
			t.Errorf("%s: memory defs/uses = %v/%v, want %v/%v", c.name, md, mu, c.mdefs, c.muses)
		}
	}
	if s := (Loc{SpaceMem, 3}).String(); s != "mem[3]" {
		t.Errorf("Loc.String = %q", s)
	}
}

// LinkedDefUse must append to recycled slices without reallocating when
// capacity suffices (the verifier calls it once per instruction).
func TestLinkedDefUseRecycles(t *testing.T) {
	lp := &LinkedProgram{}
	ndefs := make([]uint32, 0, 4)
	nuses := make([]uint32, 0, 4)
	mdefs := make([]Loc, 0, 4)
	muses := make([]Loc, 0, 4)
	in := LInstr{Op: OpMemRd, Dst: 1, A: 2, Aux: 0}
	d1, u1, _, w1 := lp.LinkedDefUse(&in, ndefs[:0], nuses[:0], mdefs[:0], muses[:0])
	d2, u2, _, w2 := lp.LinkedDefUse(&in, d1[:0], u1[:0], mdefs[:0], w1[:0])
	if &d1[0] != &d2[0] || &u1[0] != &u2[0] || &w1[0] != &w2[0] {
		t.Error("recycled slices reallocated")
	}
}

// Program.String must disclose the state and constant pool sizes.
func TestProgramStringCounts(t *testing.T) {
	p := &Program{Design: "D", NumThreads: 2, GlobalWords: 40,
		Imms: make([]uint64, 3), Mems: make([]MemSpec, 2)}
	s := p.String()
	for _, want := range []string{"40 global words", "3 imms", "2 mem columns"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}
