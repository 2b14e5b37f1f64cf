package sim

import (
	"fmt"
	"math"
	"testing"
)

// TestEvalOpTable pins EvalOp — and through it constant folding and the
// translation validator — to literal expected values for every pure
// opcode, independently of the executor that computes them. The edge rows
// are the arms an executor rewrite is most likely to get wrong: division
// and remainder by 0 and by −1, MinInt64 / −1, dynamic shifts by 64 or
// more, Dsar clamping at 63, and Andr comparing against the mask.
func TestEvalOpTable(t *testing.T) {
	const (
		m8     = 0xff
		full   = math.MaxUint64
		neg1   = math.MaxUint64     // int64(-1) sign-extended
		neg7   = 0xfffffffffffffff9 // int64(-7)
		neg16  = 0xfffffffffffffff0 // int64(-16)
		minInt = 0x8000000000000000 // math.MinInt64
		ones   = 0xffffffffffffffff // result of sign-filling shifts
		neg128 = 0xffffffffffffff80 // sext8(0x80)
	)
	cases := []struct {
		op      OpCode
		aux     uint32
		mask    uint64
		a, b, c uint64
		want    uint64
	}{
		{OpCopy, 0, m8, 0x1ff, 0, 0, 0xff},
		{OpAdd, 0, m8, 0xff, 0x02, 0, 0x01},
		{OpSub, 0, m8, 0x01, 0x02, 0, 0xff},
		{OpMul, 0, m8, 0x10, 0x11, 0, 0x10},
		{OpDiv, 0, m8, 100, 7, 0, 14},
		{OpDiv, 0, m8, 100, 0, 0, 0},
		{OpRem, 0, m8, 100, 7, 0, 2},
		{OpRem, 0, m8, 0x1234, 0, 0, 0x34},
		{OpSDiv, 0, m8, neg7, 2, 0, 0xfd},
		{OpSDiv, 0, m8, neg7, 0, 0, 0},
		{OpSDiv, 0, m8, 5, neg1, 0, 0xfb},
		{OpSDiv, 0, full, minInt, neg1, 0, minInt},
		{OpSRem, 0, m8, neg7, 2, 0, 0xff},
		{OpSRem, 0, m8, neg7, 0, 0, 0xf9},
		{OpSRem, 0, m8, 5, neg1, 0, 0},
		{OpSRem, 0, full, minInt, neg1, 0, 0},
		{OpLt, 0, 1, 1, 2, 0, 1},
		{OpLt, 0, 1, neg1, 1, 0, 0},
		{OpLeq, 0, 1, 2, 2, 0, 1},
		{OpGt, 0, 1, 1, 2, 0, 0},
		{OpGeq, 0, 1, 2, 3, 0, 0},
		{OpSLt, 0, 1, neg1, 1, 0, 1},
		{OpSLeq, 0, 1, 1, neg1, 0, 0},
		{OpSGt, 0, 1, 1, neg1, 0, 1},
		{OpSGeq, 0, 1, neg1, neg1, 0, 1},
		{OpEq, 0, 1, 5, 5, 0, 1},
		{OpNeq, 0, 1, 5, 5, 0, 0},
		{OpAnd, 0, m8, 0xf0f, 0x0ff, 0, 0x0f},
		{OpOr, 0, 0xfff, 0xf00, 0x00f, 0, 0xf0f},
		{OpXor, 0, m8, 0xff, 0x0f, 0, 0xf0},
		{OpNot, 0, m8, 0x0f, 0, 0, 0xf0},
		{OpNeg, 0, m8, 1, 0, 0, 0xff},
		{OpAndr, 0, m8, 0xff, 0, 0, 1},
		{OpAndr, 0, m8, 0x7f, 0, 0, 0},
		{OpAndr, 0, m8, 0x1ff, 0, 0, 0},
		{OpOrr, 0, 1, 0, 0, 0, 0},
		{OpOrr, 0, 1, 0x100, 0, 0, 1},
		{OpXorr, 0, 1, 0b1011, 0, 0, 1},
		{OpXorr, 0, 1, 0b11, 0, 0, 0},
		{OpCat, 4, m8, 0xa, 0x5, 0, 0xa5},
		{OpShl, 1, m8, 0x81, 0, 0, 0x02},
		{OpShr, 7, m8, 0x80, 0, 0, 1},
		{OpSar, 2, m8, neg16, 0, 0, 0xfc},
		{OpDshl, 0, m8, 1, 3, 0, 8},
		{OpDshl, 0, full, 1, 63, 0, minInt},
		{OpDshl, 0, full, 1, 64, 0, 0},
		{OpDshl, 0, full, 1, 200, 0, 0},
		{OpDshr, 0, m8, 0x80, 7, 0, 1},
		{OpDshr, 0, full, full, 64, 0, 0},
		{OpDsar, 0, m8, neg16, 2, 0, 0xfc},
		{OpDsar, 0, full, neg1, 63, 0, ones},
		{OpDsar, 0, full, minInt, 64, 0, ones},
		{OpDsar, 0, full, 5, 1000, 0, 0},
		{OpMux, 0, m8, 1, 0x12, 0x34, 0x12},
		{OpMux, 0, m8, 0, 0x12, 0x34, 0x34},
		{OpMux, 0, m8, 1, 0x1ff, 0, 0xff},
		{OpSext, 8, m8, 0x80, 0, 0, neg128},
		{OpSext, 8, m8, 0x7f, 0, 0, 0x7f},
		{OpSext, 0, m8, 0x123, 0, 0, 0x123},
		{OpSext, 64, m8, 0x123, 0, 0, 0x123},
	}
	covered := map[OpCode]bool{}
	for _, c := range cases {
		covered[c.op] = true
		name := fmt.Sprintf("%v(aux=%d,mask=%#x,%#x,%#x,%#x)", c.op, c.aux, c.mask, c.a, c.b, c.c)
		got, ok := EvalOp(c.op, c.aux, c.mask, c.a, c.b, c.c)
		if !ok {
			t.Errorf("%s: not foldable", name)
		} else if got != c.want {
			t.Errorf("%s = %#x, want %#x", name, got, c.want)
		}
	}
	for op := OpCode(0); op <= numOpCodes; op++ {
		if TraitsOf(op).Pure != covered[op] {
			t.Errorf("%v: Pure=%v but table coverage=%v", op, TraitsOf(op).Pure, covered[op])
		}
		if _, ok := EvalOp(op, 0, full, 1, 1, 1); ok != TraitsOf(op).Pure {
			t.Errorf("%v: EvalOp ok=%v, want %v", op, ok, TraitsOf(op).Pure)
		}
	}
}
