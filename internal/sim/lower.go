package sim

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/cgraph"
	"repro/internal/firrtl"
)

// Values wider than 64 bits compile to ordinary narrow code over words. A
// w-bit value occupies words(w) consecutive words, least significant first,
// the top word masked to its w-64(n-1) bits: a vertex's result temps (or
// shared slots), a sink's shadow words, an input's or register's global
// words, and a memory's word columns. A vertex whose result or any operand
// is wider than 64 bits compiles here; everything else stays on the
// one-instruction-per-vertex path of vertex.go.
//
// The helpers return word refs of intermediate values, which may carry
// garbage above the value's width in their top word; store masks every
// result word as it writes the vertex's own words.

// all is the full 64-bit mask.
const all = ^uint64(0)

// wordMask is the mask of word k of a w-bit value.
func wordMask(w, k int) uint64 { return maskOf(w - 64*k) }

// at is the ref of the k-th word after ref.
func at(ref uint32, k int) uint32 { return makeRef(refTag(ref), refIdx(ref)+uint32(k)) }

// val is one operand of a lowered vertex.
type val struct {
	t   firrtl.Type
	ref uint32   // first word of a computed or source value
	lit []uint64 // the words of a literal; nil otherwise
}

// touchesWide reports whether vx's result or any operand is wider than 64
// bits.
func (tc *threadCompiler) touchesWide(vx *cgraph.Vertex) bool {
	if vx.Type.Width > 64 {
		return true
	}
	for _, a := range vx.Args {
		if (a.V != cgraph.None || a.Lit != nil) && tc.operandType(a).Width > 64 {
			return true
		}
	}
	return false
}

// maxLowerSteps bounds the word steps (lowerCost) of all lowered vertices
// on one thread, about eight instructions per step. Division, multiply and
// dynamic shift cost the product of their operands' word counts, so without
// a bound a few hundred bytes of IR declaring 65536-bit operands would
// compile to hundreds of millions of instructions. The bound admits, per
// thread, three 1024-bit divisions or three multiplies of 8192-bit product.
const maxLowerSteps = 1 << 16

// lowerCost is the word steps lowerVertex spends on vx: the words it
// touches, plus for the quadratic lowerings one step per word per
// restoring-division bit, per schoolbook word product, or per selectable
// word offset of a dynamic shift. It saturates above maxLowerSteps.
func lowerCost(vx *cgraph.Vertex, a []val) int {
	n := words(vx.Type.Width)
	cost := n
	for _, x := range a {
		cost += words(x.t.Width)
	}
	product := func(x, y int) int {
		if x > maxLowerSteps/max(y, 1) {
			return maxLowerSteps + 1
		}
		return x * y
	}
	if vx.Kind == cgraph.KindLogic {
		switch vx.Op {
		case firrtl.OpDiv, firrtl.OpRem:
			cost += product(a[0].t.Width, words(a[1].t.Width+1))
		case firrtl.OpMul:
			cost += product(n, n)
		case firrtl.OpDshl, firrtl.OpDshr:
			offsets := max(n, words(a[0].t.Width))
			if aw := a[1].t.Width; aw < 64 {
				offsets = min(offsets, int((uint64(1)<<aw-1)>>6)+1)
			}
			cost += product(n, offsets)
		}
	}
	return min(cost, maxLowerSteps+1)
}

// lowerVertex emits the word-level code of a vertex that touches a value
// wider than 64 bits, or refuses it when the thread's lowered code would
// exceed maxLowerSteps.
func (tc *threadCompiler) lowerVertex(v cgraph.VID) error {
	vx := &tc.c.g.Vs[v]
	w := vx.Type.Width
	args := make([]val, len(vx.Args))
	for i, a := range vx.Args {
		args[i].t = tc.operandType(a)
	}
	if tc.lowerSteps += lowerCost(vx, args); tc.lowerSteps > maxLowerSteps {
		return fmt.Errorf("wide logic on this thread exceeds %d word steps at this %d-bit vertex: narrow its operands or split the computation",
			maxLowerSteps, w)
	}
	for i, a := range vx.Args {
		if a.V == cgraph.None {
			args[i].lit = bitvec.ZeroExtend(args[i].t.Width, a.Lit.Val).Words
			continue
		}
		ref, err := tc.narrowRef(a)
		if err != nil {
			return err
		}
		args[i].ref = ref
	}
	switch vx.Kind {
	case cgraph.KindConst:
		tc.store(tc.defineTemp(v), w, tc.raw(args[0]))
	case cgraph.KindLogic:
		ws := tc.lowerPrim(vx, args)
		tc.store(tc.defineTemp(v), w, ws)
	case cgraph.KindMemRead:
		dst, addr := tc.defineTemp(v), tc.word(args[0], 0)
		for k := range words(w) {
			tc.emit(instr{Op: OpMemRd, Dst: at(dst, k), A: addr, Aux: tc.c.memBase[vx.Mem] + uint32(k), Mask: wordMask(w, k)})
		}
	case cgraph.KindMemWrite:
		addr, en := tc.word(args[0], 0), tc.fold(OpOr, tc.raw(args[2])) // en is nonzero iff any word is
		for k, d := range tc.ext(args[1], w) {
			tc.emit(instr{Op: OpMemWr, A: addr, B: d, C: en, Aux: tc.c.memBase[vx.Mem] + uint32(k), Mask: wordMask(w, k)})
		}
	case cgraph.KindRegWrite, cgraph.KindOutput:
		slot, ok := tc.c.sinkSlots[v]
		if !ok || slot.thread != tc.t {
			return fmt.Errorf("sink %s has no shadow slot on thread %d", vx.Name, tc.t)
		}
		tc.store(makeRef(refShadow, slot.idx), w, tc.ext(args[0], w))
	default:
		return fmt.Errorf("unhandled vertex kind %v", vx.Kind)
	}
	return nil
}

// lowerPrim returns the result words of a primitive-operation vertex.
func (tc *threadCompiler) lowerPrim(vx *cgraph.Vertex, a []val) []uint32 {
	w := vx.Type.Width
	n := words(w)
	z := tc.imm(0)
	perWord := func(op OpCode, x, y []uint32) []uint32 {
		out := make([]uint32, n)
		for k := range out {
			out[k] = tc.op(op, 0, x[k], y[k])
		}
		return out
	}
	switch vx.Op {
	case firrtl.OpAdd, firrtl.OpSub:
		out, _ := tc.addWords(tc.ext(a[0], w), tc.ext(a[1], w), vx.Op == firrtl.OpSub, false)
		return out
	case firrtl.OpNeg:
		out, _ := tc.addWords(tc.zeros(n), tc.ext(a[0], w), true, false)
		return out
	case firrtl.OpMul:
		return tc.mulWords(tc.ext(a[0], w), tc.ext(a[1], w))
	case firrtl.OpDiv, firrtl.OpRem:
		return tc.divide(vx.Op == firrtl.OpDiv, a[0], a[1], n)
	case firrtl.OpLt, firrtl.OpLeq:
		return []uint32{tc.less(a[0], a[1], vx.Op == firrtl.OpLeq)}
	case firrtl.OpGt, firrtl.OpGeq:
		return []uint32{tc.less(a[1], a[0], vx.Op == firrtl.OpGeq)}
	case firrtl.OpEq, firrtl.OpNeq:
		cw := max(a[0].t.Width, a[1].t.Width)
		x, y := tc.ext(a[0], cw), tc.ext(a[1], cw)
		diff := z
		for k := range x {
			diff = tc.join(OpOr, diff, tc.opMask(OpXor, 0, wordMask(cw, k), x[k], y[k]))
		}
		if vx.Op == firrtl.OpEq {
			return []uint32{tc.op(OpEq, 0, diff, z)}
		}
		return []uint32{tc.op(OpNeq, 0, diff, z)}
	case firrtl.OpAnd:
		return perWord(OpAnd, tc.ext(a[0], w), tc.ext(a[1], w))
	case firrtl.OpOr:
		return perWord(OpOr, tc.ext(a[0], w), tc.ext(a[1], w))
	case firrtl.OpXor:
		return perWord(OpXor, tc.ext(a[0], w), tc.ext(a[1], w))
	case firrtl.OpNot:
		out := tc.ext(a[0], w)
		for k, x := range out {
			out[k] = tc.op(OpNot, 0, x)
		}
		return out
	case firrtl.OpAndR, firrtl.OpOrR, firrtl.OpXorR:
		return []uint32{tc.reduce(vx.Op, a[0])}
	case firrtl.OpCat:
		hi, lo, lw := tc.raw(a[0]), tc.raw(a[1]), a[1].t.Width
		out := make([]uint32, n)
		for k := range out {
			switch {
			case 64*(k+1) <= lw:
				out[k] = lo[k]
			case 64*k < lw:
				out[k] = tc.op(OpCat, uint32(lw%64), hi[0], lo[k])
			default:
				out[k] = tc.window(hi, z, 64*k-lw)
			}
		}
		return out
	case firrtl.OpBits:
		return tc.extract(tc.raw(a[0]), z, vx.Consts[1], n)
	case firrtl.OpHead:
		return tc.extract(tc.raw(a[0]), z, a[0].t.Width-vx.Consts[0], n)
	case firrtl.OpShl:
		return tc.extract(tc.raw(a[0]), z, -vx.Consts[0], n)
	case firrtl.OpShr:
		x, fill := tc.exact(a[0])
		return tc.extract(x, fill, vx.Consts[0], n)
	case firrtl.OpTail, firrtl.OpPad, firrtl.OpCvt:
		return tc.ext(a[0], w)
	case firrtl.OpAsUInt, firrtl.OpAsSInt:
		return tc.raw(a[0])
	case firrtl.OpDshl:
		return tc.shiftDyn(tc.raw(a[0]), z, a[1], true, n)
	case firrtl.OpDshr:
		x, fill := tc.exact(a[0])
		return tc.shiftDyn(x, fill, a[1], false, n)
	case firrtl.OpMux:
		cond, x, y := tc.word(a[0], 0), tc.ext(a[1], w), tc.ext(a[2], w)
		out := make([]uint32, n)
		for k := range out {
			out[k] = tc.op(OpMux, 0, cond, x[k], y[k])
		}
		return out
	}
	panic(fmt.Sprintf("sim: no lowering for %s", vx.Op))
}

// store copies words into the w-bit value at dst, masking each word.
func (tc *threadCompiler) store(dst uint32, w int, ws []uint32) {
	for k := range words(w) {
		tc.emit(instr{Op: OpCopy, Dst: at(dst, k), A: ws[k], Mask: wordMask(w, k)})
	}
}

// imm is the ref of the literal word v.
func (tc *threadCompiler) imm(v uint64) uint32 { return makeRef(refImm, tc.internImm(v)) }

// word is the ref of word k of x.
func (tc *threadCompiler) word(x val, k int) uint32 {
	if x.lit != nil {
		return tc.imm(x.lit[k])
	}
	return at(x.ref, k)
}

// op emits one instruction into a fresh scratch word and returns its ref.
// The result is unmasked, or 0/1 for compares and reductions.
func (tc *threadCompiler) op(op OpCode, aux uint32, args ...uint32) uint32 {
	mask := all
	if op >= OpLt && op <= OpNeq || op == OpOrr || op == OpXorr {
		mask = 1
	}
	return tc.opMask(op, aux, mask, args...)
}

// opMask is op with an explicit result mask.
func (tc *threadCompiler) opMask(op OpCode, aux uint32, mask uint64, args ...uint32) uint32 {
	in := instr{Op: op, Dst: tc.scratch(), Aux: aux, Mask: mask}
	refs := [3]*uint32{&in.A, &in.B, &in.C}
	for i, a := range args {
		*refs[i] = a
	}
	tc.emit(in)
	return in.Dst
}

// join is x op y for an op with identity 0 (or, add), free when a side is
// the zero literal.
func (tc *threadCompiler) join(op OpCode, x, y uint32) uint32 {
	switch z := tc.imm(0); {
	case x == z:
		return y
	case y == z:
		return x
	}
	return tc.op(op, 0, x, y)
}

// ext returns the words(w) words of x extended to w bits: zero words above
// an unsigned value, and for a signed one its top word sign-extended to 64
// bits and sign words sar(sext(top), 63) above it. Below w the words are
// exact; when w is not above x's width, the top word keeps x's own bits.
func (tc *threadCompiler) ext(x val, w int) []uint32 {
	n, nx := words(w), words(x.t.Width)
	out := make([]uint32, n)
	for k := range out {
		if k < nx {
			out[k] = tc.word(x, k)
		} else {
			out[k] = tc.imm(0)
		}
	}
	if x.t.Kind == firrtl.KSInt && w > x.t.Width {
		top := tc.sexted(out[nx-1], firrtl.SInt(x.t.Width-64*(nx-1)))
		out[nx-1] = top
		if n > nx {
			fill := tc.op(OpSar, 63, top)
			for k := nx; k < n; k++ {
				out[k] = fill
			}
		}
	}
	return out
}

// raw returns x's own words.
func (tc *threadCompiler) raw(x val) []uint32 { return tc.ext(x, x.t.Width) }

// zeros returns n zero-literal words.
func (tc *threadCompiler) zeros(n int) []uint32 {
	out := make([]uint32, n)
	for k := range out {
		out[k] = tc.imm(0)
	}
	return out
}

// exact returns x's words, exact in all 64 bits of every word, and the word
// that continues x above them (zero, or the sign word of a signed x).
func (tc *threadCompiler) exact(x val) ([]uint32, uint32) {
	ws := tc.ext(x, 64*words(x.t.Width)+1)
	return ws[:len(ws)-1], ws[len(ws)-1]
}

// window returns the 64 bits of the word sequence x starting at bit pos,
// which may be negative: words below x read as zero, words above it as
// fill. Unaligned windows are a shr + cat funnel over two words.
func (tc *threadCompiler) window(x []uint32, fill uint32, pos int) uint32 {
	z := tc.imm(0)
	src := func(j int) uint32 {
		switch {
		case j < 0:
			return z
		case j < len(x):
			return x[j]
		}
		return fill
	}
	j, s := pos>>6, uint32(pos&63)
	lo, hi := src(j), src(j+1)
	switch {
	case s == 0:
		return lo
	case lo == z && hi == z:
		return z
	case hi == z:
		return tc.op(OpShr, s, lo)
	case lo == z:
		return tc.op(OpShl, 64-s, hi)
	}
	return tc.op(OpCat, 64-s, hi, tc.op(OpShr, s, lo))
}

// extract returns n words of x (continued by fill) starting at bit lo.
func (tc *threadCompiler) extract(x []uint32, fill uint32, lo, n int) []uint32 {
	out := make([]uint32, n)
	for k := range out {
		out[k] = tc.window(x, fill, lo+64*k)
	}
	return out
}

// addWords returns the words of a+b, or a-b when sub, as a carry (borrow)
// chain of add/sub and lt, and, when carryOut, the carry out of the top
// word (0 or 1). Zero-literal words cost nothing.
func (tc *threadCompiler) addWords(a, b []uint32, sub, carryOut bool) ([]uint32, uint32) {
	z := tc.imm(0)
	op := OpAdd
	if sub {
		op = OpSub
	}
	out := make([]uint32, len(a))
	c := z
	for k := range a {
		x, y := a[k], b[k]
		carry := carryOut || k < len(a)-1
		t, c1 := x, z
		switch {
		case y == z:
		case x == z && !sub:
			t = y
		default:
			t = tc.op(op, 0, x, y)
			if carry && sub {
				c1 = tc.op(OpLt, 0, x, y)
			} else if carry {
				c1 = tc.op(OpLt, 0, t, x)
			}
		}
		s, c2 := t, z
		if c != z {
			s = tc.op(op, 0, t, c)
			if carry && sub {
				c2 = tc.op(OpLt, 0, t, c)
			} else if carry {
				c2 = tc.op(OpLt, 0, s, t)
			}
		}
		out[k], c = s, tc.join(OpOr, c1, c2)
	}
	return out, c
}

// mulWords returns the low len(a) words of a*b, schoolbook: each word
// product's low half (mul) and high half (mulhi) accumulate through carry
// chains. A row's carry never overflows: r + a_i*b_j + carry < 2^128.
func (tc *threadCompiler) mulWords(a, b []uint32) []uint32 {
	n, z := len(a), tc.imm(0)
	r := tc.zeros(n)
	for i := range n {
		if a[i] == z {
			continue
		}
		carry := z
		for j := 0; i+j < n; j++ {
			k, last := i+j, i+j == n-1
			lo, hi := z, z
			if b[j] != z {
				lo = tc.op(OpMul, 0, a[i], b[j])
				if !last {
					hi = tc.op(OpMulHi, 0, a[i], b[j])
				}
			}
			s, c1 := tc.addWords([]uint32{r[k]}, []uint32{lo}, false, !last)
			s, c2 := tc.addWords(s, []uint32{carry}, false, !last)
			r[k] = s[0]
			carry = tc.join(OpAdd, tc.join(OpAdd, hi, c1), c2)
		}
	}
	return r
}

// less returns a < b (a <= b when orEqual) as a compare chain: the bottom
// word decides unless a higher word differs, and the top word compares
// signed for SInt operands.
func (tc *threadCompiler) less(a, b val, orEqual bool) uint32 {
	w := max(a.t.Width, b.t.Width)
	signed := a.t.Kind == firrtl.KSInt
	if signed {
		w++ // extending past both widths makes every top word exact
	}
	x, y := tc.ext(a, w), tc.ext(b, w)
	var r uint32
	for k := range x {
		op := OpLt
		if signed && k == len(x)-1 {
			op = OpSLt
		}
		if k == 0 {
			if orEqual {
				op++ // OpLeq / OpSLeq
			}
			r = tc.op(op, 0, x[0], y[0])
			continue
		}
		r = tc.op(OpMux, 0, tc.op(OpEq, 0, x[k], y[k]), r, tc.op(op, 0, x[k], y[k]))
	}
	return r
}

// reduce returns the and/or/xor reduction of x's bits.
func (tc *threadCompiler) reduce(op firrtl.PrimOp, x val) uint32 {
	ws := tc.raw(x)
	n := len(ws)
	switch op {
	case firrtl.OpOrR:
		return tc.op(OpOrr, 0, tc.fold(OpOr, ws))
	case firrtl.OpXorR:
		return tc.op(OpXorr, 0, tc.fold(OpXor, ws))
	}
	// andr: set the bits above the width, then every word must be all ones.
	if m := wordMask(x.t.Width, n-1); m != all {
		ws[n-1] = tc.op(OpOr, 0, ws[n-1], tc.imm(^m))
	}
	return tc.opMask(OpAndr, 0, all, tc.fold(OpAnd, ws))
}

// fold combines words with a bitwise op.
func (tc *threadCompiler) fold(op OpCode, ws []uint32) uint32 {
	acc := ws[0]
	for _, w := range ws[1:] {
		acc = tc.op(op, 0, acc, w)
	}
	return acc
}

// shiftDyn returns n words of x shifted left (or right, with fill shifted
// in from the top) by the dynamic amount amt: a word-select mux chain over
// the possible word offsets, then a dshl/dshr funnel by the bit offset.
// OpDshl/OpDshr yield 0 at 64, which is the funnel's offset-0 case.
func (tc *threadCompiler) shiftDyn(x []uint32, fill uint32, amt val, left bool, n int) []uint32 {
	z := tc.imm(0)
	s := tc.word(amt, 0)
	if amt.t.Width > 64 { // an amount of 2^64 or more saturates
		s = tc.op(OpMux, 0, tc.fold(OpOr, tc.raw(amt)[1:]), tc.imm(all), s)
	}
	maxQ := (uint64(1)<<uint(min(amt.t.Width, 64)) - 1) >> 6
	bit, q := s, z
	if maxQ > 0 {
		bit, q = tc.op(OpAnd, 0, s, tc.imm(63)), tc.op(OpShr, 6, s)
	}
	src := func(i, off int) uint32 {
		j := i + off
		if left {
			j = i - off
		}
		switch {
		case j < 0:
			return z
		case j < len(x):
			return x[j]
		}
		return fill
	}
	limit, far := len(x), fill // a right shift by len(x) words or more reads only fill
	if left {
		limit, far = n, z
	}
	top := int(min(maxQ, uint64(limit-1)))
	var sel []uint32 // sel[c] = (q == c)
	for c := 1; c <= top; c++ {
		sel = append(sel, tc.op(OpEq, 0, q, tc.imm(uint64(c))))
	}
	beyond := z
	if maxQ > uint64(top) {
		beyond = tc.op(OpGt, 0, q, tc.imm(uint64(top)))
	}
	y := make([]uint32, n) // y[i] = x[i∓q]
	if !left {
		y = append(y, 0) // y[n] feeds the top word's funnel
	}
	for i := range y {
		y[i] = src(i, 0)
		for c := 1; c <= top; c++ {
			if v := src(i, c); v != y[i] {
				y[i] = tc.op(OpMux, 0, sel[c-1], v, y[i])
			}
		}
		if beyond != z && y[i] != far {
			y[i] = tc.op(OpMux, 0, beyond, far, y[i])
		}
	}
	inv := tc.op(OpSub, 0, tc.imm(64), bit)
	shift := func(op OpCode, x, by uint32) uint32 {
		if x == z {
			return z
		}
		return tc.op(op, 0, x, by)
	}
	out := make([]uint32, n)
	for i := range out {
		if left {
			lo := z
			if i > 0 {
				lo = y[i-1]
			}
			out[i] = tc.join(OpOr, shift(OpDshl, y[i], bit), shift(OpDshr, lo, inv))
		} else {
			out[i] = tc.join(OpOr, shift(OpDshr, y[i], bit), shift(OpDshl, y[i+1], inv))
		}
	}
	return out
}

// divide returns the n result words of a/b (div) or a%b, straight-line
// restoring division on magnitudes with an abs/negate fix-up for SInt.
// Division by zero follows firrtl.EvalPrim: the quotient is 0 and the
// remainder is the dividend.
func (tc *threadCompiler) divide(div bool, a, b val, n int) []uint32 {
	z := tc.imm(0)
	x, y := tc.raw(a), tc.raw(b)
	sa, sb := z, z
	if a.t.Kind == firrtl.KSInt {
		x, sa = tc.abs(a)
		y, sb = tc.abs(b)
	}
	q, r := tc.divmod(x, a.t.Width, y, b.t.Width, div)
	res, neg := r, sa
	if div {
		res, neg = q, tc.op(OpXor, 0, sa, sb)
	}
	res = append(res, tc.zeros(max(n-len(res), 0))...)[:n]
	if neg == z {
		return res
	}
	return tc.condNeg(res, neg)
}

// abs returns the magnitude of the signed x in words(width) words and its
// sign word (all ones when x is negative).
func (tc *threadCompiler) abs(x val) ([]uint32, uint32) {
	ws, sign := tc.exact(x)
	return tc.condNeg(ws, sign), sign
}

// condNeg returns -x when the word m is all ones and x when it is zero:
// (x ^ m) + (m & 1).
func (tc *threadCompiler) condNeg(x []uint32, m uint32) []uint32 {
	flip, inc := make([]uint32, len(x)), tc.zeros(len(x))
	for k := range x {
		flip[k] = tc.op(OpXor, 0, x[k], m)
	}
	inc[0] = tc.op(OpAnd, 0, m, tc.imm(1))
	out, _ := tc.addWords(flip, inc, false, false)
	return out
}

// divmod divides the wa-bit x by the wb-bit y, one quotient bit per step:
// shift the next dividend bit into the partial remainder R (wb+1 bits),
// subtract y, and keep the difference unless it borrowed. It returns the
// quotient words (only when wantQ; zero when y is 0) and R (x itself,
// truncated, when y is 0).
func (tc *threadCompiler) divmod(x []uint32, wa int, y []uint32, wb int, wantQ bool) (q, r []uint32) {
	z, nr := tc.imm(0), words(wb+1)
	ys, r, q := tc.zeros(nr), tc.zeros(nr), tc.zeros(words(wa))
	copy(ys, y)
	for i := wa - 1; i >= 0; i-- {
		for k := nr - 1; k > 0; k-- {
			r[k] = tc.window(r, z, 64*k-1)
		}
		bit := z
		if x[i/64] != z {
			bit = tc.opMask(OpShr, uint32(i%64), 1, x[i/64])
		}
		switch {
		case r[0] == z:
			r[0] = bit
		case bit == z:
			r[0] = tc.op(OpShl, 1, r[0])
		default:
			r[0] = tc.op(OpCat, 1, r[0], bit)
		}
		d, borrow := tc.addWords(r, ys, true, true)
		for k := range r {
			r[k] = tc.op(OpMux, 0, borrow, r[k], d[k])
		}
		switch qw := &q[i/64]; {
		case !wantQ:
		case *qw == z:
			*qw = borrow // borrow is the zero literal every step or none
		default:
			*qw = tc.op(OpCat, 1, *qw, borrow)
		}
	}
	if !wantQ {
		return nil, r
	}
	byZero := tc.op(OpEq, 0, tc.fold(OpOr, ys), z)
	for k := range q {
		q[k] = tc.op(OpMux, 0, byZero, z, tc.opMask(OpNot, 0, wordMask(wa, k), q[k]))
	}
	return q, r
}
