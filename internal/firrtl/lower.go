package firrtl

import "fmt"

// Lower rewrites a (checked, flat) module so that every expression is in
// graph normal form:
//
//   - every Node expression is a Prim whose arguments are Refs or Lits, a
//     MemRead whose address is a Ref or Lit, or a plain Ref/Lit alias;
//   - every Connect and MemWrite operand is a Ref or a Lit.
//
// Nested expressions are split out into fresh nodes named "lt$<n>". After
// lowering, statements map one-to-one onto circuit graph vertices.
// The circuit must contain a single module (run Flatten first). A checked
// input lowers to a circuit that checks too (the front end's tests hold
// Lower to that).
func Lower(c *Circuit) (*Circuit, error) {
	if len(c.Modules) != 1 {
		return nil, fmt.Errorf("lower: circuit must be flat (got %d modules)", len(c.Modules))
	}
	m := c.Modules[0]
	out := &Module{Name: m.Name, Ports: m.Ports}
	l := &lowerer{out: out, used: map[string]bool{}}
	for _, p := range m.Ports {
		l.used[p.Name] = true
	}
	for _, st := range m.Stmts {
		switch s := st.(type) {
		case *Inst:
			return nil, fmt.Errorf("lower: unexpected instance %s (run Flatten first)", s.Name)
		case *Wire, *Reg, *Mem:
			l.declare(st)
		case *Node:
			e := l.flattenTop(s.Expr)
			l.out.Stmts = append(l.out.Stmts, &Node{Name: s.Name, Expr: e})
			l.used[s.Name] = true
		case *MemWrite:
			l.out.Stmts = append(l.out.Stmts, &MemWrite{
				Mem:  s.Mem,
				Addr: l.atom(s.Addr),
				Data: l.atom(s.Data),
				En:   l.atom(s.En),
			})
		case *Connect:
			l.out.Stmts = append(l.out.Stmts, &Connect{Loc: s.Loc, Expr: l.atom(s.Expr)})
		}
	}
	return &Circuit{Name: c.Name, Modules: []*Module{out}}, nil
}

type lowerer struct {
	out  *Module
	used map[string]bool
	n    int
}

func (l *lowerer) declare(st Stmt) {
	switch s := st.(type) {
	case *Wire:
		l.used[s.Name] = true
	case *Reg:
		l.used[s.Name] = true
	case *Mem:
		l.used[s.Name] = true
	}
	l.out.Stmts = append(l.out.Stmts, st)
}

func (l *lowerer) fresh() string {
	for {
		name := fmt.Sprintf("lt$%d", l.n)
		l.n++
		if !l.used[name] {
			l.used[name] = true
			return name
		}
	}
}

// atom reduces e to a Ref or Lit, emitting nodes for anything compound.
func (l *lowerer) atom(e Expr) Expr {
	switch x := e.(type) {
	case *Ref, *Lit:
		return x
	}
	top := l.flattenTop(e)
	name := l.fresh()
	l.out.Stmts = append(l.out.Stmts, &Node{Name: name, Expr: top})
	return &Ref{Name: name, Typ: top.Type()}
}

// flattenTop keeps the top level of e but reduces its operands to atoms.
func (l *lowerer) flattenTop(e Expr) Expr {
	switch x := e.(type) {
	case *Ref, *Lit:
		return x
	case *MemRead:
		return &MemRead{Mem: x.Mem, Addr: l.atom(x.Addr), Typ: x.Typ}
	case *Prim:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = l.atom(a)
		}
		return &Prim{Op: x.Op, Args: args, Consts: x.Consts, Typ: x.Typ}
	case *Field:
		panic("lower: Field survived flattening")
	}
	panic(fmt.Sprintf("lower: unknown expr %T", e))
}
