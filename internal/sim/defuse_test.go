package sim

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/firrtl"
)

func TestWideLoc(t *testing.T) {
	cases := []struct {
		a    WideOperand
		want Loc
	}{
		{WideOperand{Space: wsWideLocal, Idx: 1}, Loc{SpaceWideLocal, 1}},
		{WideOperand{Space: wsWideGlobal, Idx: 2}, Loc{SpaceWideGlobal, 2}},
		{WideOperand{Space: wsWideImm, Idx: 3}, Loc{SpaceWideImm, 3}},
		{WideOperand{Space: wsWideShadow, Idx: 4}, Loc{SpaceWideShadow, 4}},
	}
	for _, c := range cases {
		if got := WideLoc(c.a); got != c.want {
			t.Errorf("WideLoc(%v) = %v, want %v", c.a, got, c.want)
		}
	}
	if s := (Loc{SpaceWideShadow, 3}).String(); s != "wide-shadow[3]" {
		t.Errorf("Loc.String = %q", s)
	}
}

// TestLinkedDefUse pins the def/use sets the verifier's scan is built on.
// Narrow operands are flat state indices (here 1 is a global, 24 an
// immediate, 40–44 temps, 49–50 shadow words); wide and memory locations
// keep their space-relative encoding.
func TestLinkedDefUse(t *testing.T) {
	ty := firrtl.UInt(80)
	lp := &LinkedProgram{
		WideNodes: []WideNode{
			{Kind: wkPrim, Op: firrtl.OpXor, RType: ty,
				Args: []WideOperand{{Space: wsWideLocal, Idx: 0}, {Space: wsWideGlobal, Idx: 1}},
				Dst:  WideOperand{Space: wsWideLocal, Idx: 2}},
			{Kind: wkMemRd, Mem: 4, RType: ty,
				Args: []WideOperand{{Space: wsNarrow, Idx: 43}},
				Dst:  WideOperand{Space: wsWideLocal, Idx: 5}},
			{Kind: wkMemWr, Mem: 6,
				Args: []WideOperand{
					{Space: wsNarrow, Idx: 40},
					{Space: wsWideLocal, Idx: 1},
					{Space: wsNarrow, Idx: 42},
				}},
			{Kind: wkPrim, Op: firrtl.OpEq, RType: firrtl.UInt(1),
				Args: []WideOperand{{Space: wsWideLocal, Idx: 0}, {Space: wsWideImm, Idx: 3}},
				Dst:  WideOperand{Space: wsNarrow, Idx: 44}},
		},
	}
	cases := []struct {
		name         string
		in           LInstr
		ndefs, nuses []uint32
		wdefs, wuses []Loc
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
		{"memwr", LInstr{Op: OpMemWr, A: 41, B: 42, C: 43, Aux: 5},
			nil, []uint32{41, 42, 43}, []Loc{{SpaceMem, 5}}, nil},
		{"wide-prim", LInstr{Op: OpWide, Aux: 0},
			nil, nil, []Loc{{SpaceWideLocal, 2}}, []Loc{{SpaceWideLocal, 0}, {SpaceWideGlobal, 1}}},
		// The narrow address of a wide memory read is a flat index.
		{"wide-memrd", LInstr{Op: OpWide, Aux: 1},
			nil, []uint32{43}, []Loc{{SpaceWideLocal, 5}}, []Loc{{SpaceMem, 4}}},
		// A wide memory write's zero-value Dst must not read as a def of
		// wide-local 0; the def is the memory itself.
		{"wide-memwr", LInstr{Op: OpWide, Aux: 2},
			nil, []uint32{40, 42}, []Loc{{SpaceMem, 6}}, []Loc{{SpaceWideLocal, 1}}},
		{"wide-narrow-dst", LInstr{Op: OpWide, Aux: 3},
			[]uint32{44}, nil, nil, []Loc{{SpaceWideLocal, 0}, {SpaceWideImm, 3}}},
	}
	for _, c := range cases {
		nd, nu, wd, wu := lp.LinkedDefUse(&c.in, nil, nil, nil, nil)
		if !slices.Equal(nd, c.ndefs) || !slices.Equal(nu, c.nuses) {
			t.Errorf("%s: narrow defs/uses = %v/%v, want %v/%v", c.name, nd, nu, c.ndefs, c.nuses)
		}
		if !slices.Equal(wd, c.wdefs) || !slices.Equal(wu, c.wuses) {
			t.Errorf("%s: wide defs/uses = %v/%v, want %v/%v", c.name, wd, wu, c.wdefs, c.wuses)
		}
	}
}

// LinkedDefUse must append to recycled slices without reallocating when
// capacity suffices (the verifier calls it once per instruction).
func TestLinkedDefUseRecycles(t *testing.T) {
	lp := &LinkedProgram{}
	ndefs := make([]uint32, 0, 4)
	nuses := make([]uint32, 0, 4)
	wdefs := make([]Loc, 0, 4)
	wuses := make([]Loc, 0, 4)
	in := LInstr{Op: OpMemRd, Dst: 1, A: 2, Aux: 0}
	d1, u1, _, w1 := lp.LinkedDefUse(&in, ndefs[:0], nuses[:0], wdefs[:0], wuses[:0])
	d2, u2, _, w2 := lp.LinkedDefUse(&in, d1[:0], u1[:0], wdefs[:0], w1[:0])
	if &d1[0] != &d2[0] || &u1[0] != &u2[0] || &w1[0] != &w2[0] {
		t.Error("recycled slices reallocated")
	}
}

// Program.String must disclose the wide pools (satellite: the old format
// omitted GlobalWide and WideImms, misleading on wide-heavy designs).
func TestProgramStringIncludesWideCounts(t *testing.T) {
	p := &Program{Design: "D", NumThreads: 2, GlobalWords: 40, GlobalWide: 7,
		Imms: make([]uint64, 3)}
	s := p.String()
	for _, want := range []string{"40 global words", "(7 wide)", "3 imms", "(0 wide)"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}
