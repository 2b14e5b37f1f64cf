package cgraph

import (
	"math/bits"
	"slices"

	"repro/internal/bitvec"
	"repro/internal/firrtl"
)

// Merge hash-conses the graph's combinational logic: every logic or
// constant vertex that repeats an earlier vertex's primitive op, integer
// constants, result and argument types, and operands (vertices by
// representative, literals by type and value) is dropped, and its readers
// read the earlier vertex instead. One walk of Topo suffices, because an
// operand is always visited, and so already replaced by its
// representative, before its readers. Sources, sinks and memory reads are
// never merged: they are state, ports, or a listed memory port. A merged
// vertex's name resolves to its representative through VertexByName.
// Merge renumbers the vertices, rebuilds adjacency and Topo, adds the
// number it dropped to Merged, and returns that number.
func (g *Graph) Merge() int {
	n := len(g.Vs)
	if n == 0 {
		return 0
	}
	rep := make([]VID, n)
	for i := range rep {
		rep[i] = VID(i)
	}
	// Open-addressed table of representatives, indexed by the top bits of
	// their hash; a slot holds VID+1, so zero is empty.
	logBits := bits.Len(uint(2*n - 1))
	shift := 64 - logBits
	mask := uint64(1)<<logBits - 1
	slots := make([]VID, mask+1)
	hashes := make([]uint64, mask+1)
	merged := 0
	for _, v := range g.Topo {
		x := &g.Vs[v]
		for j := range x.Args {
			if a := x.Args[j].V; a != None {
				x.Args[j].V = rep[a]
			}
		}
		if x.Kind != KindLogic && x.Kind != KindConst {
			continue
		}
		h := nodeHash(x)
		for i := h >> shift; ; i = (i + 1) & mask {
			s := slots[i]
			if s == 0 {
				slots[i], hashes[i] = v+1, h
				break
			}
			if hashes[i] == h && sameNode(&g.Vs[s-1], x) {
				rep[v] = s - 1
				merged++
				break
			}
		}
	}
	if merged == 0 {
		return 0
	}
	// Dropping a vertex whose operands all feed its representative leaves
	// the old order topological; keep it rather than re-sorting.
	remap := renumber(g, rep)
	topo := g.Topo[:0]
	for _, v := range g.Topo {
		if rep[v] == v {
			topo = append(topo, remap[v])
		}
	}
	g.Topo = topo
	buildAdjacency(g)
	g.Merged += merged
	return merged
}

// hashMul is the 64-bit golden-ratio multiplier; the table indexes by the
// product's top bits, which every input bit reaches.
const hashMul = 0x9e3779b97f4a7c15

func mixHash(h, x uint64) uint64 { return (h ^ x) * hashMul }

func typeWord(t firrtl.Type) uint64 { return uint64(t.Kind)<<32 | uint64(uint32(t.Width)) }

// nodeHash hashes exactly the fields sameNode compares.
func nodeHash(x *Vertex) uint64 {
	h := mixHash(uint64(x.Kind)<<8|uint64(x.Op), typeWord(x.Type))
	for _, c := range x.Consts {
		h = mixHash(h, uint64(c))
	}
	for _, t := range x.ArgTypes {
		h = mixHash(h, typeWord(t))
	}
	for _, a := range x.Args {
		if a.V != None {
			h = mixHash(h, uint64(a.V))
			continue
		}
		h = mixHash(h, typeWord(a.Lit.Typ)|1<<63)
		for i, w := range a.Lit.Val.Words {
			if w != 0 { // bitvec.Eq ignores zero high words
				h = mixHash(h, w+uint64(i))
			}
		}
	}
	return h
}

// sameNode reports whether two logic or constant vertices compute the same
// value every cycle.
func sameNode(a, b *Vertex) bool {
	if a.Kind != b.Kind || a.Op != b.Op || a.Type != b.Type || len(a.Args) != len(b.Args) ||
		!slices.Equal(a.Consts, b.Consts) || !slices.Equal(a.ArgTypes, b.ArgTypes) {
		return false
	}
	for i := range a.Args {
		x, y := a.Args[i], b.Args[i]
		if x.V != y.V {
			return false
		}
		if x.V == None && (x.Lit.Typ != y.Lit.Typ || !bitvec.Eq(x.Lit.Val, y.Lit.Val)) {
			return false
		}
	}
	return true
}
