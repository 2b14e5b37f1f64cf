// Package cgraph builds the circuit DAG the RepCut partitioner operates on.
//
// Following §4.1 of the paper, every register is split into two vertices —
// a read (source) and a write (sink) — and every memory into a state source,
// combinational read vertices, and write sinks. Sources carry state across
// cycles and are not partitioned; sinks anchor the cones that the
// replication-aided partitioner assigns to threads. All other vertices are
// combinational and map one-to-one onto lowered IR statements.
package cgraph

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/firrtl"
)

// VID identifies a vertex in a Graph.
type VID int32

// None marks the absence of a vertex (e.g. a literal operand).
const None VID = -1

// Kind classifies graph vertices.
type Kind uint8

// Vertex kinds. Sources have no predecessors; sinks have no successors.
const (
	KindInput     Kind = iota // source: top-level input port
	KindRegRead               // source: register value at cycle start
	KindMemSource             // source: memory state at cycle start
	KindConst                 // combinational: literal constant
	KindLogic                 // combinational: primitive operation
	KindMemRead               // combinational: memory read port
	KindRegWrite              // sink: register next-value
	KindMemWrite              // sink: memory write port
	KindOutput                // sink: top-level output port
)

func (k Kind) String() string {
	switch k {
	case KindInput:
		return "input"
	case KindRegRead:
		return "regread"
	case KindMemSource:
		return "memsource"
	case KindConst:
		return "const"
	case KindLogic:
		return "logic"
	case KindMemRead:
		return "memread"
	case KindRegWrite:
		return "regwrite"
	case KindMemWrite:
		return "memwrite"
	case KindOutput:
		return "output"
	}
	return "?kind"
}

// IsSource reports whether k is a state/input source vertex.
func (k Kind) IsSource() bool {
	return k == KindInput || k == KindRegRead || k == KindMemSource
}

// IsSink reports whether k is a state/output sink vertex.
func (k Kind) IsSink() bool {
	return k == KindRegWrite || k == KindMemWrite || k == KindOutput
}

// Operand is a vertex argument: either another vertex or a literal.
type Operand struct {
	V   VID         // None for a literal
	Lit *firrtl.Lit // nil unless V == None
}

// Vertex is one node of the circuit DAG.
type Vertex struct {
	Kind   Kind
	Name   string
	Type   firrtl.Type
	Op     firrtl.PrimOp // valid for KindLogic
	Consts []int         // valid for KindLogic
	// Args are the data operands:
	//   Logic:    primitive arguments in order
	//   MemRead:  [address]
	//   MemWrite: [address, data, enable]
	//   RegWrite, Output: [driver]
	Args     []Operand
	ArgTypes []firrtl.Type
	Reg      int // register index for KindRegRead/KindRegWrite, else -1
	Mem      int // memory index for KindMem*, else -1
}

// RegInfo describes one split register.
type RegInfo struct {
	Name  string
	Type  firrtl.Type
	Init  bitvec.Vec
	Read  VID
	Write VID
}

// DerepGroup describes one dereplicated register group produced by the
// partitioner's dereplication post-pass. The registers (indices into
// Graph.Regs, ascending) all take their next value from the same driver
// vertex U and share one initial value, so their write sinks are demoted:
// no thread executes them, and instead the owning partition commits U's
// value once per cycle into a single shared slot that every register's
// read vertex aliases. At the evaluation phase of cycle c the slot holds
// U@(c−1), which by the register transfer r@c = U@(c−1) is exactly the
// registers' current value — readers on other threads see only the
// previous cycle's committed value, never a same-cycle one.
type DerepGroup struct {
	// U is the common next-value driver vertex committed by the owner.
	U VID
	// Owner is the partition that computes U and commits the shared slot.
	Owner int32
	// Regs are the demoted registers (indices into Graph.Regs, ascending).
	Regs []int32
}

// MemInfo describes one memory.
type MemInfo struct {
	Name   string
	Type   firrtl.Type
	Depth  int
	Source VID
	Reads  []VID
	Writes []VID
}

// Graph is the split circuit DAG.
type Graph struct {
	Name string
	Vs   []Vertex
	// Succs and Preds are the adjacency lists (data edges only; a literal
	// operand contributes no edge).
	Succs [][]VID
	Preds [][]VID

	Regs []RegInfo
	Mems []MemInfo

	Inputs  []VID
	Outputs []VID

	// Topo is a topological order over all vertices (sources first).
	Topo []VID

	// DeadRemoved counts combinational vertices pruned because they reach
	// no sink.
	DeadRemoved int
	// Merged counts combinational vertices Merge folded into an earlier
	// vertex computing the same value.
	Merged int

	byName map[string]VID
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return len(g.Vs) }

// NumEdges returns the directed edge count.
func (g *Graph) NumEdges() int {
	n := 0
	for _, s := range g.Succs {
		n += len(s)
	}
	return n
}

// VertexByName returns the vertex with the given IR name.
func (g *Graph) VertexByName(name string) (VID, bool) {
	v, ok := g.byName[name]
	return v, ok
}

// Sinks returns all sink vertex IDs.
func (g *Graph) Sinks() []VID {
	var out []VID
	for i := range g.Vs {
		if g.Vs[i].Kind.IsSink() {
			out = append(out, VID(i))
		}
	}
	return out
}

// Sources returns all source vertex IDs.
func (g *Graph) Sources() []VID {
	var out []VID
	for i := range g.Vs {
		if g.Vs[i].Kind.IsSource() {
			out = append(out, VID(i))
		}
	}
	return out
}

// Stats are the Table 1 columns for a design, plus the merge count.
type Stats struct {
	IRNodes   int
	Edges     int
	SinkVtx   int
	SinkPct   float64
	RegWrites int
	MemWrites int
	// Merged is Graph.Merged: vertices folded away before IRNodes was
	// counted (0 for a graph Merge never ran on).
	Merged int
}

// Stats computes the design statistics reported in Table 1.
func (g *Graph) Stats() Stats {
	s := Stats{IRNodes: g.NumVertices(), Edges: g.NumEdges(), Merged: g.Merged}
	for i := range g.Vs {
		if g.Vs[i].Kind.IsSink() {
			s.SinkVtx++
		}
		switch g.Vs[i].Kind {
		case KindRegWrite:
			s.RegWrites++
		case KindMemWrite:
			s.MemWrites++
		}
	}
	if s.IRNodes > 0 {
		s.SinkPct = 100 * float64(s.SinkVtx) / float64(s.IRNodes)
	}
	return s
}

// String summarizes the graph.
func (g *Graph) String() string {
	st := g.Stats()
	return fmt.Sprintf("graph %s: %d vertices, %d edges, %d sinks (%.2f%%), %d regs, %d mems",
		g.Name, st.IRNodes, st.Edges, st.SinkVtx, st.SinkPct, len(g.Regs), len(g.Mems))
}
