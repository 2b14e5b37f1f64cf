// Package bitvec implements fixed-width unsigned bit vectors of arbitrary
// width, stored as little-endian 64-bit words. It is the value substrate for
// signals wider than 64 bits in the RTL simulator: every operation keeps its
// result masked to the vector's declared width, matching two's-complement
// hardware semantics.
package bitvec

import (
	"fmt"
	"math/big"
	"math/bits"
	"strings"
)

// Vec is a fixed-width bit vector. The zero value is a zero-width vector.
// Word 0 holds the least-significant bits. All words beyond Width bits are
// kept zero (the canonical form); every operation restores this invariant.
type Vec struct {
	Width int
	Words []uint64
}

// WordsFor returns the number of 64-bit words needed to hold width bits.
func WordsFor(width int) int {
	if width <= 0 {
		return 0
	}
	return (width + 63) / 64
}

// New returns a zero vector of the given width.
func New(width int) Vec {
	if width < 0 {
		panic(fmt.Sprintf("bitvec: negative width %d", width))
	}
	return Vec{Width: width, Words: make([]uint64, WordsFor(width))}
}

// FromUint64 returns a vector of the given width holding v (truncated).
func FromUint64(width int, v uint64) Vec {
	x := New(width)
	if len(x.Words) > 0 {
		x.Words[0] = v
	}
	x.normalize()
	return x
}

// FromBig returns a vector of the given width holding v mod 2^width.
// Negative v is interpreted as two's complement within width.
func FromBig(width int, v *big.Int) Vec {
	x := New(width)
	t := new(big.Int).Set(v)
	if t.Sign() < 0 {
		mod := new(big.Int).Lsh(big.NewInt(1), uint(width))
		t.Mod(t, mod)
		if t.Sign() < 0 {
			t.Add(t, mod)
		}
	}
	ws := t.Bits()
	for i := 0; i < len(ws) && i < len(x.Words); i++ {
		x.Words[i] = uint64(ws[i])
	}
	x.normalize()
	return x
}

// Big returns the unsigned value as a big.Int.
func (x Vec) Big() *big.Int {
	r := new(big.Int)
	for i := len(x.Words) - 1; i >= 0; i-- {
		r.Lsh(r, 64)
		r.Or(r, new(big.Int).SetUint64(x.Words[i]))
	}
	return r
}

// SignedBig returns the value interpreted as a two's-complement signed
// integer of x.Width bits.
func (x Vec) SignedBig() *big.Int {
	r := x.Big()
	if x.Width > 0 && x.Bit(x.Width-1) == 1 {
		mod := new(big.Int).Lsh(big.NewInt(1), uint(x.Width))
		r.Sub(r, mod)
	}
	return r
}

// Uint64 returns the low 64 bits of x.
func (x Vec) Uint64() uint64 {
	if len(x.Words) == 0 {
		return 0
	}
	return x.Words[0]
}

// Clone returns a deep copy of x.
func (x Vec) Clone() Vec {
	y := Vec{Width: x.Width, Words: make([]uint64, len(x.Words))}
	copy(y.Words, x.Words)
	return y
}

// normalize masks off any bits above Width.
func (x *Vec) normalize() {
	n := WordsFor(x.Width)
	for i := n; i < len(x.Words); i++ {
		x.Words[i] = 0
	}
	if n > 0 {
		rem := uint(x.Width & 63)
		if rem != 0 {
			x.Words[n-1] &= (1 << rem) - 1
		}
	}
}

// Bit returns bit i of x (0 if out of range).
func (x Vec) Bit(i int) uint {
	if i < 0 || i >= x.Width {
		return 0
	}
	return uint(x.Words[i/64]>>(uint(i)&63)) & 1
}

// SetBit sets bit i of x to b (no-op if out of range).
func (x *Vec) SetBit(i int, b uint) {
	if i < 0 || i >= x.Width {
		return
	}
	if b&1 == 1 {
		x.Words[i/64] |= 1 << (uint(i) & 63)
	} else {
		x.Words[i/64] &^= 1 << (uint(i) & 63)
	}
}

// IsZero reports whether x is zero.
func (x Vec) IsZero() bool {
	for _, w := range x.Words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Eq reports whether x and y hold the same value (widths may differ; the
// comparison is on unsigned values).
func Eq(x, y Vec) bool {
	n := len(x.Words)
	if len(y.Words) > n {
		n = len(y.Words)
	}
	for i := 0; i < n; i++ {
		var a, b uint64
		if i < len(x.Words) {
			a = x.Words[i]
		}
		if i < len(y.Words) {
			b = y.Words[i]
		}
		if a != b {
			return false
		}
	}
	return true
}

// Cmp compares x and y as unsigned values: -1 if x<y, 0 if equal, 1 if x>y.
func Cmp(x, y Vec) int {
	n := len(x.Words)
	if len(y.Words) > n {
		n = len(y.Words)
	}
	for i := n - 1; i >= 0; i-- {
		var a, b uint64
		if i < len(x.Words) {
			a = x.Words[i]
		}
		if i < len(y.Words) {
			b = y.Words[i]
		}
		if a != b {
			if a < b {
				return -1
			}
			return 1
		}
	}
	return 0
}

// CmpSigned compares x and y as signed values of their respective widths.
func CmpSigned(x, y Vec) int {
	sx := x.Width > 0 && x.Bit(x.Width-1) == 1
	sy := y.Width > 0 && y.Bit(y.Width-1) == 1
	if sx != sy {
		if sx {
			return -1
		}
		return 1
	}
	if !sx {
		return Cmp(x, y)
	}
	return x.SignedBig().Cmp(y.SignedBig())
}

// AddInto computes dst = (x + y) mod 2^dst.Width. dst must be pre-sized.
func AddInto(dst *Vec, x, y Vec) {
	var carry uint64
	for i := range dst.Words {
		var a, b uint64
		if i < len(x.Words) {
			a = x.Words[i]
		}
		if i < len(y.Words) {
			b = y.Words[i]
		}
		s, c1 := bits.Add64(a, b, carry)
		dst.Words[i] = s
		carry = c1
	}
	dst.normalize()
}

// Add returns x+y at the given result width.
func Add(width int, x, y Vec) Vec {
	r := New(width)
	AddInto(&r, x, y)
	return r
}

// SubInto computes dst = (x - y) mod 2^dst.Width.
func SubInto(dst *Vec, x, y Vec) {
	var borrow uint64
	for i := range dst.Words {
		var a, b uint64
		if i < len(x.Words) {
			a = x.Words[i]
		}
		if i < len(y.Words) {
			b = y.Words[i]
		}
		s, c1 := bits.Sub64(a, b, borrow)
		dst.Words[i] = s
		borrow = c1
	}
	dst.normalize()
}

// Sub returns x-y (two's complement) at the given result width.
func Sub(width int, x, y Vec) Vec {
	r := New(width)
	SubInto(&r, x, y)
	return r
}

// MulInto computes dst = (x*y) mod 2^dst.Width using schoolbook multiply.
func MulInto(dst *Vec, x, y Vec) {
	n := len(dst.Words)
	tmp := make([]uint64, n)
	for i := 0; i < len(x.Words) && i < n; i++ {
		a := x.Words[i]
		if a == 0 {
			continue
		}
		var carry uint64
		for j := 0; i+j < n; j++ {
			var b uint64
			if j < len(y.Words) {
				b = y.Words[j]
			}
			hi, lo := bits.Mul64(a, b)
			lo, c := bits.Add64(lo, tmp[i+j], 0)
			hi += c
			lo, c = bits.Add64(lo, carry, 0)
			hi += c
			tmp[i+j] = lo
			carry = hi
		}
	}
	copy(dst.Words, tmp)
	dst.normalize()
}

// Mul returns x*y at the given result width.
func Mul(width int, x, y Vec) Vec {
	r := New(width)
	MulInto(&r, x, y)
	return r
}

// Div returns the unsigned quotient x/y at the given width; division by
// zero yields zero (hardware convention used by this simulator).
func Div(width int, x, y Vec) Vec {
	if y.IsZero() {
		return New(width)
	}
	q := new(big.Int).Quo(x.Big(), y.Big())
	return FromBig(width, q)
}

// Rem returns the unsigned remainder x%y at the given width; y==0 yields x.
func Rem(width int, x, y Vec) Vec {
	if y.IsZero() {
		return FromBig(width, x.Big())
	}
	m := new(big.Int).Rem(x.Big(), y.Big())
	return FromBig(width, m)
}

// And returns x&y at the given width.
func And(width int, x, y Vec) Vec {
	r := New(width)
	for i := range r.Words {
		var a, b uint64
		if i < len(x.Words) {
			a = x.Words[i]
		}
		if i < len(y.Words) {
			b = y.Words[i]
		}
		r.Words[i] = a & b
	}
	r.normalize()
	return r
}

// Or returns x|y at the given width.
func Or(width int, x, y Vec) Vec {
	r := New(width)
	for i := range r.Words {
		var a, b uint64
		if i < len(x.Words) {
			a = x.Words[i]
		}
		if i < len(y.Words) {
			b = y.Words[i]
		}
		r.Words[i] = a | b
	}
	r.normalize()
	return r
}

// Xor returns x^y at the given width.
func Xor(width int, x, y Vec) Vec {
	r := New(width)
	for i := range r.Words {
		var a, b uint64
		if i < len(x.Words) {
			a = x.Words[i]
		}
		if i < len(y.Words) {
			b = y.Words[i]
		}
		r.Words[i] = a ^ b
	}
	r.normalize()
	return r
}

// Not returns ^x at x's width.
func Not(x Vec) Vec {
	r := New(x.Width)
	for i := range r.Words {
		var a uint64
		if i < len(x.Words) {
			a = x.Words[i]
		}
		r.Words[i] = ^a
	}
	r.normalize()
	return r
}

// Neg returns -x (two's complement) at x's width.
func Neg(width int, x Vec) Vec {
	return Sub(width, New(width), x)
}

// Shl returns x << n at the given result width.
func Shl(width int, x Vec, n int) Vec {
	r := New(width)
	if n < 0 {
		panic("bitvec: negative shift")
	}
	wordShift := n / 64
	bitShift := uint(n % 64)
	for i := len(r.Words) - 1; i >= 0; i-- {
		var v uint64
		src := i - wordShift
		if src >= 0 && src < len(x.Words) {
			v = x.Words[src] << bitShift
		}
		if bitShift > 0 && src-1 >= 0 && src-1 < len(x.Words) {
			v |= x.Words[src-1] >> (64 - bitShift)
		}
		r.Words[i] = v
	}
	r.normalize()
	return r
}

// Shr returns x >> n (logical) at the given result width.
func Shr(width int, x Vec, n int) Vec {
	r := New(width)
	if n < 0 {
		panic("bitvec: negative shift")
	}
	wordShift := n / 64
	bitShift := uint(n % 64)
	for i := range r.Words {
		var v uint64
		src := i + wordShift
		if src < len(x.Words) {
			v = x.Words[src] >> bitShift
		}
		if bitShift > 0 && src+1 < len(x.Words) {
			v |= x.Words[src+1] << (64 - bitShift)
		}
		r.Words[i] = v
	}
	r.normalize()
	return r
}

// Asr returns x >> n arithmetically (sign bit of x's width replicated),
// at the given result width.
func Asr(width int, x Vec, n int) Vec {
	r := Shr(width, x, n)
	if x.Width > 0 && x.Bit(x.Width-1) == 1 {
		// Fill bits [x.Width-n, width) with ones.
		lo := x.Width - n
		if lo < 0 {
			lo = 0
		}
		for i := lo; i < width; i++ {
			r.SetBit(i, 1)
		}
	}
	return r
}

// Bits returns x[hi:lo] inclusive, as a vector of width hi-lo+1.
func Bits(x Vec, hi, lo int) Vec {
	if hi < lo || lo < 0 {
		panic(fmt.Sprintf("bitvec: bad bit range [%d:%d]", hi, lo))
	}
	return Shr(hi-lo+1, x, lo)
}

// Cat returns {x, y}: x in the high bits, y in the low bits.
func Cat(x, y Vec) Vec {
	w := x.Width + y.Width
	r := Shl(w, x, y.Width)
	ry := New(w)
	copy(ry.Words, y.Words)
	ry.normalize()
	return Or(w, r, ry)
}

// SignExtend returns x sign-extended from x.Width to width.
func SignExtend(width int, x Vec) Vec {
	r := New(width)
	copy(r.Words, x.Words)
	if width > x.Width && x.Width > 0 && x.Bit(x.Width-1) == 1 {
		for i := x.Width; i < width; i++ {
			r.SetBit(i, 1)
		}
	}
	r.normalize()
	return r
}

// ZeroExtend returns x zero-extended (or truncated) to width.
func ZeroExtend(width int, x Vec) Vec {
	r := New(width)
	copy(r.Words, x.Words)
	r.normalize()
	return r
}

// AndR returns the 1-bit AND-reduction of x.
func AndR(x Vec) Vec {
	r := New(1)
	if x.Width == 0 {
		r.Words = []uint64{1}
		return r
	}
	all := true
	for i := 0; i < x.Width; i++ {
		if x.Bit(i) == 0 {
			all = false
			break
		}
	}
	if all {
		r.Words[0] = 1
	}
	return r
}

// OrR returns the 1-bit OR-reduction of x.
func OrR(x Vec) Vec {
	r := New(1)
	if !x.IsZero() {
		r.Words[0] = 1
	}
	return r
}

// XorR returns the 1-bit XOR-reduction of x.
func XorR(x Vec) Vec {
	var pop int
	for _, w := range x.Words {
		pop += bits.OnesCount64(w)
	}
	r := New(1)
	r.Words[0] = uint64(pop & 1)
	return r
}

// String renders x as width'hHEX.
func (x Vec) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d'h", x.Width)
	started := false
	for i := len(x.Words) - 1; i >= 0; i-- {
		if !started {
			if x.Words[i] == 0 && i > 0 {
				continue
			}
			fmt.Fprintf(&sb, "%x", x.Words[i])
			started = true
		} else {
			fmt.Fprintf(&sb, "%016x", x.Words[i])
		}
	}
	if !started {
		sb.WriteString("0")
	}
	return sb.String()
}

// ParseDec parses a decimal (possibly negative) literal into a vector of
// the given width.
func ParseDec(width int, s string) (Vec, error) {
	v, ok := new(big.Int).SetString(s, 10)
	if !ok {
		return Vec{}, fmt.Errorf("bitvec: bad decimal literal %q", s)
	}
	return FromBig(width, v), nil
}
