package firrtl

import "fmt"

// Flatten inlines every module instance into a single flat top module,
// producing a new circuit with exactly one module. Hierarchical names are
// mangled with '$' separators (instance "u" port "in" becomes wire "u$in").
// Clock ports of instances are dropped (single implicit clock domain).
// The input circuit must have been checked (Check is what types parsed
// expressions); the result then checks too (the front end's tests hold
// Flatten to that). An untyped expression is an error.
func Flatten(c *Circuit) (*Circuit, error) {
	top := c.Main()
	if top == nil {
		return nil, fmt.Errorf("flatten: no top module %q", c.Name)
	}
	flat := &Module{Name: top.Name}
	for _, p := range top.Ports {
		flat.Ports = append(flat.Ports, &Port{Name: p.Name, Dir: p.Dir, Type: p.Type})
	}
	if err := inlineInto(c, top, "", flat, 0); err != nil {
		return nil, err
	}
	return &Circuit{Name: c.Name, Modules: []*Module{flat}}, nil
}

const maxInlineDepth = 64

// inlineInto appends the statements of module m into flat, renaming local
// names with prefix. Instance statements recurse.
func inlineInto(c *Circuit, m *Module, prefix string, flat *Module, depth int) error {
	if depth > maxInlineDepth {
		return fmt.Errorf("flatten: instance nesting deeper than %d (recursive hierarchy?)", maxInlineDepth)
	}
	// rename maps a local name to its flattened name.
	rename := func(name string) string { return prefix + name }

	// Collect instances so their ports can be materialized as wires before
	// any statement refers to them.
	insts := map[string]*Inst{}
	for _, st := range m.Stmts {
		if inst, ok := st.(*Inst); ok {
			insts[inst.Name] = inst
			sub := c.Module(inst.Of)
			if sub == nil {
				return fmt.Errorf("flatten: unknown module %q", inst.Of)
			}
			for _, p := range sub.Ports {
				if p.Type.IsClock() {
					continue
				}
				flat.Stmts = append(flat.Stmts, &Wire{
					Name: rename(inst.Name) + "$" + p.Name,
					Type: p.Type,
				})
			}
		}
	}

	var untyped Expr // the first expression Check has not typed
	var rewrite func(e Expr) Expr
	rewrite = func(e Expr) Expr {
		if untyped == nil && e.Type().Width <= 0 {
			untyped = e
		}
		switch x := e.(type) {
		case *Ref:
			return &Ref{Name: rename(x.Name), Typ: x.Typ}
		case *Field:
			return &Ref{Name: rename(x.Inst) + "$" + x.Port, Typ: x.Typ}
		case *Lit:
			return x
		case *MemRead:
			return &MemRead{Mem: rename(x.Mem), Addr: rewrite(x.Addr), Typ: x.Typ}
		case *Prim:
			args := make([]Expr, len(x.Args))
			for i, a := range x.Args {
				args[i] = rewrite(a)
			}
			return &Prim{Op: x.Op, Args: args, Consts: x.Consts, Typ: x.Typ}
		}
		panic(fmt.Sprintf("flatten: unknown expr %T", e))
	}

	for _, st := range m.Stmts {
		switch s := st.(type) {
		case *Wire:
			flat.Stmts = append(flat.Stmts, &Wire{Name: rename(s.Name), Type: s.Type})
		case *Reg:
			flat.Stmts = append(flat.Stmts, &Reg{Name: rename(s.Name), Type: s.Type, Init: s.Init})
		case *Mem:
			flat.Stmts = append(flat.Stmts, &Mem{Name: rename(s.Name), Type: s.Type, Depth: s.Depth})
		case *Node:
			flat.Stmts = append(flat.Stmts, &Node{Name: rename(s.Name), Expr: rewrite(s.Expr)})
		case *MemWrite:
			flat.Stmts = append(flat.Stmts, &MemWrite{
				Mem:  rename(s.Mem),
				Addr: rewrite(s.Addr),
				Data: rewrite(s.Data),
				En:   rewrite(s.En),
			})
		case *Connect:
			inst, port, isField := splitLoc(s.Loc)
			loc := rename(s.Loc)
			if isField {
				// Driving an instance input: route to the port wire —
				// unless it is a clock, which is dropped entirely.
				sub := c.Module(insts[inst].Of)
				p := sub.Port(port)
				if p != nil && p.Type.IsClock() {
					continue
				}
				loc = rename(inst) + "$" + port
			}
			flat.Stmts = append(flat.Stmts, &Connect{Loc: loc, Expr: rewrite(s.Expr)})
		case *Inst:
			sub := c.Module(s.Of)
			subPrefix := rename(s.Name) + "$"
			// Inside the child, a read of input port p or a drive of output
			// port p must refer to the materialized wire subPrefix+p. Since
			// child locals are renamed with the same prefix, port names map
			// to exactly those wires — no extra plumbing is needed.
			if err := inlineInto(c, sub, subPrefix, flat, depth+1); err != nil {
				return err
			}
		}
	}
	if untyped != nil {
		return fmt.Errorf("flatten: untyped expression %s in module %s (run Check first)", ExprString(untyped), m.Name)
	}
	return nil
}
