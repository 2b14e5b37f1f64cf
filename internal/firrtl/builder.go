package firrtl

import (
	"fmt"

	"repro/internal/bitvec"
)

// Builder constructs circuits programmatically with eager type inference.
// It is the API the synthetic design generators (internal/designs) use.
// Builder methods panic on type errors: generators are code, and a width
// bug in a generator is a programming error, not runtime input.
type Builder struct {
	c *Circuit
}

// NewBuilder creates a builder for a circuit whose top module is named top.
func NewBuilder(top string) *Builder {
	return &Builder{c: &Circuit{Name: top}}
}

// Circuit finalizes and returns the circuit. It panics if Check fails,
// reporting the generator bug.
func (b *Builder) Circuit() *Circuit {
	if err := Check(b.c); err != nil {
		panic(fmt.Sprintf("builder: generated circuit fails check: %v", err))
	}
	return b.c
}

// Module starts a new module in the circuit.
func (b *Builder) Module(name string) *ModuleBuilder {
	m := &Module{Name: name}
	b.c.Modules = append(b.c.Modules, m)
	return &ModuleBuilder{b: b, m: m, names: map[string]bool{}}
}

// ModuleBuilder accumulates ports and statements for one module.
type ModuleBuilder struct {
	b     *Builder
	m     *Module
	names map[string]bool
	tmp   int
}

// Name returns the module's name.
func (mb *ModuleBuilder) Name() string { return mb.m.Name }

func (mb *ModuleBuilder) claim(name string) {
	if mb.names[name] {
		panic(fmt.Sprintf("builder: duplicate name %q in module %s", name, mb.m.Name))
	}
	mb.names[name] = true
}

// Fresh returns a fresh unique name with the given prefix.
func (mb *ModuleBuilder) Fresh(prefix string) string {
	for {
		name := fmt.Sprintf("%s_%d", prefix, mb.tmp)
		mb.tmp++
		if !mb.names[name] {
			return name
		}
	}
}

// Input declares an input port and returns a reference to it.
func (mb *ModuleBuilder) Input(name string, t Type) *Ref {
	mb.claim(name)
	mb.m.Ports = append(mb.m.Ports, &Port{Name: name, Dir: Input, Type: t})
	return &Ref{Name: name, Typ: t}
}

// Output declares an output port; drive it with Connect.
func (mb *ModuleBuilder) Output(name string, t Type) *Ref {
	mb.claim(name)
	mb.m.Ports = append(mb.m.Ports, &Port{Name: name, Dir: Output, Type: t})
	return &Ref{Name: name, Typ: t}
}

// Wire declares a wire; drive it with Connect.
func (mb *ModuleBuilder) Wire(name string, t Type) *Ref {
	mb.claim(name)
	mb.m.Stmts = append(mb.m.Stmts, &Wire{Name: name, Type: t})
	return &Ref{Name: name, Typ: t}
}

// Reg declares a register with power-on value init (truncated to width) and
// returns a reference to its read value. Drive its next value with Connect.
func (mb *ModuleBuilder) Reg(name string, t Type, init uint64) *Ref {
	mb.claim(name)
	iv := bitvec.FromUint64(t.Width, init)
	mb.m.Stmts = append(mb.m.Stmts, &Reg{Name: name, Type: t, Init: &iv})
	return &Ref{Name: name, Typ: t}
}

// Mem declares a memory and returns a handle for reads and writes.
func (mb *ModuleBuilder) Mem(name string, t Type, depth int) *MemHandle {
	mb.claim(name)
	mem := &Mem{Name: name, Type: t, Depth: depth}
	mb.m.Stmts = append(mb.m.Stmts, mem)
	return &MemHandle{mb: mb, mem: mem}
}

// Node binds expr to name and returns a reference; use "" for an
// auto-generated name.
func (mb *ModuleBuilder) Node(name string, expr Expr) *Ref {
	if name == "" {
		name = mb.Fresh("n")
	}
	mb.claim(name)
	mb.m.Stmts = append(mb.m.Stmts, &Node{Name: name, Expr: expr})
	return &Ref{Name: name, Typ: expr.Type()}
}

// Connect drives target (a wire, register, or output ref) with expr.
func (mb *ModuleBuilder) Connect(target *Ref, expr Expr) {
	mb.m.Stmts = append(mb.m.Stmts, &Connect{Loc: target.Name, Expr: expr})
}

// Instance instantiates module of (which must already be built) under name.
func (mb *ModuleBuilder) Instance(name string, of *ModuleBuilder) *InstHandle {
	mb.claim(name)
	mb.m.Stmts = append(mb.m.Stmts, &Inst{Name: name, Of: of.m.Name})
	return &InstHandle{mb: mb, name: name, of: of.m}
}

// InstHandle connects and reads the ports of one instance.
type InstHandle struct {
	mb   *ModuleBuilder
	name string
	of   *Module
}

// In drives the instance input port with expr.
func (ih *InstHandle) In(port string, expr Expr) {
	p := ih.of.Port(port)
	if p == nil || p.Dir != Input {
		panic(fmt.Sprintf("builder: %s has no input port %q", ih.of.Name, port))
	}
	ih.mb.m.Stmts = append(ih.mb.m.Stmts, &Connect{Loc: ih.name + "." + port, Expr: expr})
}

// Out returns the instance output port value.
func (ih *InstHandle) Out(port string) *Field {
	p := ih.of.Port(port)
	if p == nil || p.Dir != Output {
		panic(fmt.Sprintf("builder: %s has no output port %q", ih.of.Name, port))
	}
	return &Field{Inst: ih.name, Port: port, Typ: p.Type}
}

// MemHandle reads and writes one memory.
type MemHandle struct {
	mb  *ModuleBuilder
	mem *Mem
}

// Read returns the combinational read of the memory at addr.
func (mh *MemHandle) Read(addr Expr) Expr {
	return &MemRead{Mem: mh.mem.Name, Addr: addr, Typ: mh.mem.Type}
}

// Write writes data at addr when en is 1, visible next cycle.
func (mh *MemHandle) Write(addr, data, en Expr) {
	mh.mb.m.Stmts = append(mh.mb.m.Stmts, &MemWrite{
		Mem: mh.mem.Name, Addr: addr, Data: data, En: en,
	})
}

// Depth returns the memory's depth.
func (mh *MemHandle) Depth() int { return mh.mem.Depth }

// P builds a primitive expression with eager type inference, panicking on
// type errors.
func P(op PrimOp, args ...Expr) Expr { return PC(op, args, nil) }

// PC builds a primitive with integer constants (bits, pad, shl, ...).
func PC(op PrimOp, args []Expr, consts []int) Expr {
	ats := make([]Type, len(args))
	for i, a := range args {
		ats[i] = a.Type()
	}
	rt, err := InferType(op, ats, consts)
	if err != nil {
		panic(fmt.Sprintf("builder: %v", err))
	}
	return &Prim{Op: op, Args: args, Consts: consts, Typ: rt}
}

// Convenience expression constructors used heavily by generators.

// U builds a UInt literal of the given width.
func U(width int, v uint64) *Lit {
	return &Lit{Typ: UInt(width), Val: bitvec.FromUint64(width, v)}
}

// Add returns a+b at width max(wa,wb)+1.
func Add(a, b Expr) Expr { return P(OpAdd, a, b) }

// AddW returns a+b truncated back to width w (a common generator pattern).
func AddW(w int, a, b Expr) Expr { return Trunc(w, P(OpAdd, a, b)) }

// Sub returns a-b.
func Sub(a, b Expr) Expr { return P(OpSub, a, b) }

// Mul returns a*b at width wa+wb.
func Mul(a, b Expr) Expr { return P(OpMul, a, b) }

// And/Or/Xor/Not are bitwise.
func And(a, b Expr) Expr { return P(OpAnd, a, b) }
func Or(a, b Expr) Expr  { return P(OpOr, a, b) }
func Xor(a, b Expr) Expr { return P(OpXor, a, b) }
func Not(a Expr) Expr    { return P(OpNot, a) }

// Comparisons return UInt<1>.
func Eq(a, b Expr) Expr  { return P(OpEq, a, b) }
func Neq(a, b Expr) Expr { return P(OpNeq, a, b) }
func Lt(a, b Expr) Expr  { return P(OpLt, a, b) }
func Geq(a, b Expr) Expr { return P(OpGeq, a, b) }

// Mux returns sel ? hi : lo.
func Mux(sel, hi, lo Expr) Expr { return P(OpMux, sel, hi, lo) }

// CatE concatenates (a in high bits).
func CatE(a, b Expr) Expr { return P(OpCat, a, b) }

// BitsE extracts a[hi:lo].
func BitsE(a Expr, hi, lo int) Expr { return PC(OpBits, []Expr{a}, []int{hi, lo}) }

// BitE extracts a single bit as UInt<1>.
func BitE(a Expr, i int) Expr { return BitsE(a, i, i) }

// Trunc truncates a to its low w bits (w must not exceed a's width).
func Trunc(w int, a Expr) Expr {
	if a.Type().Width == w {
		return a
	}
	return BitsE(a, w-1, 0)
}

// PadE widens a to at least w bits.
func PadE(w int, a Expr) Expr { return PC(OpPad, []Expr{a}, []int{w}) }

// OrrE is the 1-bit OR-reduction.
func OrrE(a Expr) Expr { return P(OpOrR, a) }

// XorrE is the 1-bit XOR-reduction.
func XorrE(a Expr) Expr { return P(OpXorR, a) }
