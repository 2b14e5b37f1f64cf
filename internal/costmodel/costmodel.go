// Package costmodel predicts the simulation time of circuit vertices and
// partitions — RepCut's "simulation effort model" (§4.3 of the paper).
//
// The model is linear, exactly as in the paper: the predicted cost of a
// vertex is a per-operation-class weight scaled by the number of 64-bit
// words its result occupies, plus a fixed dispatch overhead. Class weights
// come either from the calibrated defaults below or from a least-squares
// fit (Fit) against measured execution times of circuit partitions.
//
// Costs are expressed in integer model units (1 unit = 0.01 ns of predicted
// single-thread execution) so they can be used directly as hypergraph
// vertex/edge weights.
package costmodel

import (
	"fmt"

	"repro/internal/cgraph"
	"repro/internal/firrtl"
)

// Class groups primitive operations with similar execution cost.
type Class int

// Operation classes (the model's features).
const (
	ClassDispatch Class = iota // per-vertex interpreter overhead
	ClassALU                   // and/or/xor/not/bits/cat/pad/shifts/mux/cmp
	ClassAddSub
	ClassMul
	ClassDiv
	ClassDynShift
	ClassReduce
	ClassMemRead
	ClassMemWrite
	ClassCopy  // register write / output copy
	ClassConst // constant materialization
	NumClasses
)

var classNames = [NumClasses]string{
	"dispatch", "alu", "addsub", "mul", "div", "dynshift",
	"reduce", "memread", "memwrite", "copy", "const",
}

func (c Class) String() string {
	if c >= 0 && c < NumClasses {
		return classNames[c]
	}
	return fmt.Sprintf("?class(%d)", int(c))
}

// ClassOf returns the cost class of a vertex.
func ClassOf(v *cgraph.Vertex) Class {
	switch v.Kind {
	case cgraph.KindConst:
		return ClassConst
	case cgraph.KindMemRead:
		return ClassMemRead
	case cgraph.KindMemWrite:
		return ClassMemWrite
	case cgraph.KindRegWrite, cgraph.KindOutput:
		return ClassCopy
	case cgraph.KindLogic:
		switch v.Op {
		case firrtl.OpAdd, firrtl.OpSub, firrtl.OpNeg, firrtl.OpCvt:
			return ClassAddSub
		case firrtl.OpMul:
			return ClassMul
		case firrtl.OpDiv, firrtl.OpRem:
			return ClassDiv
		case firrtl.OpDshl, firrtl.OpDshr:
			return ClassDynShift
		case firrtl.OpAndR, firrtl.OpOrR, firrtl.OpXorR:
			return ClassReduce
		default:
			return ClassALU
		}
	}
	// Sources execute nothing during evaluation.
	return ClassConst
}

// words returns how many 64-bit words a vertex's value needs (minimum 1).
func words(v *cgraph.Vertex) int64 {
	w := (v.Type.Width + 63) / 64
	if w < 1 {
		w = 1
	}
	return int64(w)
}

// Model holds per-class weights in model units per word, plus the dispatch
// overhead applied once per vertex.
type Model struct {
	// Weights[c] is the per-word cost of class c; Weights[ClassDispatch]
	// is per-vertex.
	Weights [NumClasses]float64
	// Flat, if true, ignores the weights and charges 1 unit per vertex —
	// the "RepCut UW" (unweighted) configuration from the paper.
	Flat bool
}

// Default returns the calibrated model. The values approximate per-op
// costs of compiled full-cycle simulator code on a modern x86 host (units
// of 0.01 ns at stall-free IPC; an average node costs ~0.32 ns).
func Default() Model {
	var m Model
	m.Weights = [NumClasses]float64{
		ClassDispatch: 20,
		ClassALU:      8,
		ClassAddSub:   9,
		ClassMul:      35,
		ClassDiv:      230,
		ClassDynShift: 22,
		ClassReduce:   15,
		ClassMemRead:  43,
		ClassMemWrite: 50,
		ClassCopy:     10,
		ClassConst:    3,
	}
	return m
}

// Unweighted returns the flat model used by the RepCut UW baseline: every
// vertex costs one unit regardless of operation or width.
func Unweighted() Model {
	return Model{Flat: true}
}

// VertexCost predicts the cost of simulating one vertex, in model units.
// Source vertices cost nothing (they are state reads resolved by layout).
func (m Model) VertexCost(v *cgraph.Vertex) int64 {
	if v.Kind.IsSource() {
		return 0
	}
	if m.Flat {
		return 1
	}
	c := m.Weights[ClassDispatch] + m.Weights[ClassOf(v)]*float64(words(v))
	if c < 1 {
		c = 1
	}
	return int64(c)
}

// Features returns the per-class word counts of a vertex, the regressors of
// the linear model: Features[ClassDispatch] is 1 and Features[ClassOf(v)]
// is the word count.
func Features(v *cgraph.Vertex) [NumClasses]float64 {
	var f [NumClasses]float64
	if v.Kind.IsSource() {
		return f
	}
	f[ClassDispatch] = 1
	f[ClassOf(v)] += float64(words(v))
	return f
}

// Sample is one fitting observation: the summed features of a circuit
// partition and its measured execution time in model units.
type Sample struct {
	Features [NumClasses]float64
	Time     float64
}

// Fit computes model weights by ridge-regularized least squares over the
// samples (normal equations solved by Gaussian elimination with partial
// pivoting). Negative fitted weights are clamped to zero: a negative
// simulation cost is physically meaningless and only arises from collinear
// features.
func Fit(samples []Sample) (Model, error) {
	if len(samples) < int(NumClasses) {
		return Model{}, fmt.Errorf("costmodel: need at least %d samples, got %d", int(NumClasses), len(samples))
	}
	const n = int(NumClasses)
	var ata [n][n]float64
	var aty [n]float64
	for _, s := range samples {
		for i := 0; i < n; i++ {
			if s.Features[i] == 0 {
				continue
			}
			aty[i] += s.Features[i] * s.Time
			for j := 0; j < n; j++ {
				ata[i][j] += s.Features[i] * s.Features[j]
			}
		}
	}
	// Ridge: keeps the system solvable when a class never appears.
	const ridge = 1e-6
	var trace float64
	for i := 0; i < n; i++ {
		trace += ata[i][i]
	}
	lambda := ridge * (trace/float64(n) + 1)
	for i := 0; i < n; i++ {
		ata[i][i] += lambda
	}
	x, err := solve(ata, aty)
	if err != nil {
		return Model{}, err
	}
	var m Model
	for i := 0; i < n; i++ {
		if x[i] < 0 {
			x[i] = 0
		}
		m.Weights[i] = x[i]
	}
	return m, nil
}

// solve performs Gaussian elimination with partial pivoting on an n×n
// system.
func solve(a [NumClasses][NumClasses]float64, b [NumClasses]float64) ([NumClasses]float64, error) {
	const n = int(NumClasses)
	for col := 0; col < n; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if abs(a[r][col]) > abs(a[piv][col]) {
				piv = r
			}
		}
		if abs(a[piv][col]) < 1e-12 {
			return b, fmt.Errorf("costmodel: singular normal equations (column %d)", col)
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	var x [NumClasses]float64
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for c := r + 1; c < n; c++ {
			s -= a[r][c] * x[c]
		}
		x[r] = s / a[r][r]
	}
	return x, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// NanosToUnits converts nanoseconds to model units.
func NanosToUnits(ns float64) float64 { return ns * 100 }
