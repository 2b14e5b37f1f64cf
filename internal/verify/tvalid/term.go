package tvalid

import (
	"unsafe"

	"repro/internal/sim"
)

// maskOf returns the mask of the low w bits (full mask for w >= 64).
func maskOf(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << w) - 1
}

// termKind discriminates the nodes of the expression DAG.
type termKind uint8

const (
	tkConst termKind = iota // concrete value
	tkVar                   // free variable: a register or input global word
	tkUndef                 // read of storage nothing defined (never equal to anything)
	tkApp                   // opcode application
)

// term is one hash-consed node. Terms are interned: two terms denote the
// same function of the free variables whenever they are the same pointer,
// which is what makes hash (pointer) equality a proof of equivalence.
type term struct {
	kind termKind
	op   sim.OpCode // tkApp
	aux  uint32     // tkApp: shift amount / cat width / mem index / sext width
	mask uint64     // tkApp: canonicalized result mask (see builder.app)
	val  uint64     // tkConst: value; tkVar: slot; tkUndef: unique id
	args []*term
	// bits is a proven upper bound on the bits the value can have set,
	// seeded from port/register widths and immediate values exactly like
	// the linker's mask tracking — it discharges the "this mask is a no-op"
	// side conditions of the normalization rules.
	bits uint64
	id   uint64
}

// termKey is the interning key: an application has at most three
// arguments.
type termKey struct {
	kind termKind
	op   sim.OpCode
	aux  uint32
	mask uint64
	val  uint64
	a0   uint64
	a1   uint64
	a2   uint64
}

// builder is the hash-cons arena plus the normalization engine. Terms and
// argument vectors are slab-allocated and caller argument buffers are never
// retained, so the hot interning path (a hit) allocates nothing.
type builder struct {
	terms map[termKey]*term
	next  uint64
	// width[slot] bounds global word slot (64 when unknown).
	width   map[uint32]int
	bytes   int64
	slab    []term  // current term slab chunk
	argSlab []*term // current argument-vector slab chunk
	// Hot-path caches in front of the interning map: free variables by
	// slot, and small constants by value.
	vars        []*term
	smallConsts [512]*term
}

// slabChunk sizes the term and argument slabs. Retired chunks stay alive
// through the pointers the interning map holds.
const slabChunk = 2048

// newBuilder sizes the interning map for roughly hint distinct terms (the
// instruction count of the programs under validation is a good estimate).
func newBuilder(hint int) *builder {
	if hint < 64 {
		hint = 64
	}
	return &builder{
		terms: make(map[termKey]*term, hint),
		width: make(map[uint32]int),
	}
}

// arenaBytes approximates the retained size of the hash-cons arena: the
// term nodes, their argument slices, and the interning map's keys/buckets.
func (b *builder) arenaBytes() int64 { return b.bytes }

// alloc places a term in the slab and returns its stable address.
func (b *builder) alloc(t term) *term {
	if len(b.slab) == cap(b.slab) {
		b.slab = make([]term, 0, slabChunk)
	}
	b.slab = append(b.slab, t)
	return &b.slab[len(b.slab)-1]
}

// saveArgs copies an argument vector into the slab so interned terms never
// alias a caller's scratch buffer.
func (b *builder) saveArgs(args []*term) []*term {
	if len(args) == 0 {
		return nil
	}
	if len(b.argSlab)+len(args) > cap(b.argSlab) {
		b.argSlab = make([]*term, 0, slabChunk)
	}
	off := len(b.argSlab)
	b.argSlab = append(b.argSlab, args...)
	return b.argSlab[off : off+len(args) : off+len(args)]
}

func (b *builder) intern(k termKey, t term) *term {
	if got, ok := b.terms[k]; ok {
		return got
	}
	b.next++
	t.id = b.next
	t.args = b.saveArgs(t.args)
	p := b.alloc(t)
	b.terms[k] = p
	b.bytes += int64(unsafe.Sizeof(t)) + int64(unsafe.Sizeof(k)) + int64(len(t.args))*8
	return p
}

// konst interns a concrete value. Its bits bound is the value
// itself, matching the linker's immediate mask seeding. Small values — the
// overwhelming majority — hit an array cache in front of the map.
func (b *builder) konst(v uint64) *term {
	if v < uint64(len(b.smallConsts)) {
		if t := b.smallConsts[v]; t != nil {
			return t
		}
		t := b.intern(termKey{kind: tkConst, val: v}, term{kind: tkConst, val: v, bits: v})
		b.smallConsts[v] = t
		return t
	}
	return b.intern(termKey{kind: tkConst, val: v}, term{kind: tkConst, val: v, bits: v})
}

// bound records that global word slot holds the given word of a width-bit
// register or input: 64 bits except the value's top word.
func (b *builder) bound(slot uint32, width int) {
	for k := 0; k*64 < width; k++ {
		b.width[slot+uint32(k)] = min(width-64*k, 64)
	}
}

// variable interns the free variable for a global word (register or
// input). Both sides of the validation read the same slots, so interning by
// slot makes the two symbolic executions range over identical variables.
// The by-slot cache keeps the per-read cost at one bounds check.
func (b *builder) variable(slot uint32) *term {
	if int(slot) < len(b.vars) {
		if t := b.vars[slot]; t != nil {
			return t
		}
	} else {
		nv := make([]*term, slot+64)
		copy(nv, b.vars)
		b.vars = nv
	}
	w, ok := b.width[slot]
	if !ok {
		w = 64
	}
	t := b.intern(termKey{kind: tkVar, val: uint64(slot)},
		term{kind: tkVar, val: uint64(slot), bits: maskOf(w)})
	b.vars[slot] = t
	return t
}

// undef makes a fresh never-equal term for a read nothing defined. The
// structural verifier rejects such programs; the validator just makes sure
// the slot falls through to concrete probing instead of falsely proving.
func (b *builder) undef() *term {
	b.next++
	t := b.alloc(term{kind: tkUndef, val: b.next, bits: ^uint64(0), id: b.next})
	b.bytes += int64(unsafe.Sizeof(*t))
	return t
}

func fill(k *termKey, args []*term) {
	switch len(args) {
	case 3:
		k.a2 = args[2].id
		fallthrough
	case 2:
		k.a1 = args[1].id
		fallthrough
	case 1:
		k.a0 = args[0].id
	}
}

// unmaskedBound bounds the bits an application can produce before its result
// mask is applied. Conservative (^0) whenever a tight bound needs arithmetic.
func unmaskedBound(op sim.OpCode, aux uint32, args []*term) uint64 {
	a := func(i int) uint64 {
		if i < len(args) {
			return args[i].bits
		}
		return ^uint64(0)
	}
	switch op {
	case sim.OpCopy:
		return a(0)
	case sim.OpAnd:
		return a(0) & a(1)
	case sim.OpOr, sim.OpXor:
		return a(0) | a(1)
	case sim.OpMux:
		return a(1) | a(2)
	case sim.OpShl:
		if aux >= 64 {
			return 0
		}
		return a(0) << aux
	case sim.OpShr:
		if aux >= 64 {
			return 0
		}
		return a(0) >> aux
	case sim.OpCat:
		if aux >= 64 {
			return a(1)
		}
		return a(0)<<aux | a(1)
	}
	return ^uint64(0)
}

// app builds the canonical term for one opcode application,
// mirroring every rewrite the optimizer passes perform:
//
//   - constant folding through sim.EvalOp (the real executor — the
//     validator owns no opcode semantics of its own)
//   - copy-chain collapse and truncation fusion (OpCopy absorbs into any
//     producer whose executor masks its result)
//   - no-op mask canonicalization (a mask provably covering every settable
//     bit is rewritten to the full mask: fuseTruncations narrows a
//     producer's mask to the copy's, and where both the O0 and the narrowed
//     mask are no-ops the two sides must still intern as one term)
//   - commutative operand ordering by term id
//   - sign-extension idempotence (Aux 0 / width >= 64 / sign bit provably
//     clear => identity)
//   - mux absorption (a constant condition folds to an arm)
func (b *builder) app(op sim.OpCode, aux uint32, mask uint64, args ...*term) *term {
	tr := sim.TraitsOf(op)

	if op == sim.OpCopy {
		return b.copyOf(args[0], mask)
	}
	if op == sim.OpSext {
		x := args[0]
		if aux == 0 || aux >= 64 {
			return x // the executor's signExtend64 is the identity here
		}
		if x.bits&^maskOf(int(aux)-1) == 0 {
			return x // sign bit provably clear: extension changes nothing
		}
		if x.kind == tkConst {
			return b.konst(sim.SignExtend64(x.val, aux))
		}
		return b.intern(termKey{kind: tkApp, op: op, aux: aux, a0: x.id},
			term{kind: tkApp, op: op, aux: aux, mask: ^uint64(0),
				args: []*term{x}, bits: ^uint64(0)})
	}

	// Constant folding through the real executor.
	if tr.Pure && allConst(args) {
		var cv [3]uint64
		for i := 0; i < len(args) && i < 3; i++ {
			cv[i] = args[i].val
		}
		if v, ok := sim.EvalOp(op, aux, mask, cv[0], cv[1], cv[2]); ok {
			return b.konst(v)
		}
	}

	if op == sim.OpMux {
		cond := args[0]
		if cond.kind == tkConst {
			if cond.val != 0 {
				return b.copyOf(args[1], mask)
			}
			return b.copyOf(args[2], mask)
		}
	}

	if tr.Commutative && len(args) == 2 && args[0].id > args[1].id {
		args[0], args[1] = args[1], args[0]
	}

	// Mask canonicalization. Ops whose executor ignores Mask (compares,
	// reductions) always intern under the full mask; ops that truncate
	// intern under the full mask whenever the truncation is provably a
	// no-op. OpAndr's Mask is a semantic comparand and is kept verbatim.
	bound := ^uint64(0)
	switch {
	case tr.MaskIsOperand:
		bound = 1
	case !tr.MasksResult:
		mask = ^uint64(0)
		if isBoolOp(op) {
			bound = 1
		}
	default:
		ub := unmaskedBound(op, aux, args)
		if ub&^mask == 0 {
			mask = ^uint64(0)
		}
		bound = ub & mask
	}

	k := termKey{kind: tkApp, op: op, aux: aux, mask: mask}
	fill(&k, args)
	return b.intern(k, term{kind: tkApp, op: op, aux: aux, mask: mask,
		args: args, bits: bound})
}

// copyOf is the canonical form of "dst = x & mask": the identity when the
// mask provably clears nothing, truncation fusion into a masking producer
// otherwise — exactly propagateCopies plus fuseTruncations.
func (b *builder) copyOf(x *term, mask uint64) *term {
	if x.bits&^mask == 0 {
		return x
	}
	if x.kind == tkConst {
		return b.konst(x.val & mask)
	}
	if x.kind == tkApp && sim.TraitsOf(x.op).MasksResult {
		// (f(...) & M) & M' == f(...) & (M & M') for every op the executor
		// truncates, so fold the copy's mask into the producer.
		return b.app(x.op, x.aux, x.mask&mask, x.args...)
	}
	k := termKey{kind: tkApp, op: sim.OpCopy, mask: mask, a0: x.id}
	return b.intern(k, term{kind: tkApp, op: sim.OpCopy, mask: mask,
		args: []*term{x}, bits: x.bits & mask})
}

func allConst(args []*term) bool {
	for _, a := range args {
		if a.kind != tkConst {
			return false
		}
	}
	return true
}

// isBoolOp reports ops whose result is always 0 or 1.
func isBoolOp(op sim.OpCode) bool {
	switch op {
	case sim.OpLt, sim.OpLeq, sim.OpGt, sim.OpGeq,
		sim.OpSLt, sim.OpSLeq, sim.OpSGt, sim.OpSGeq,
		sim.OpEq, sim.OpNeq, sim.OpAndr, sim.OpOrr, sim.OpXorr:
		return true
	}
	return false
}
