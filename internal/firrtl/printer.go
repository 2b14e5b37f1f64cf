package firrtl

import (
	"fmt"
	"strings"
)

// Print renders the circuit in the textual format accepted by Parse.
// Circuit and module names go through ident, so a circuit built in process
// under a name the lexer cannot read back (the bundled "RocketChip-1C")
// re-parses as the same circuit named RocketChip_1C.
func Print(c *Circuit) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "circuit %s {\n", ident(c.Name))
	for _, m := range c.Modules {
		printModule(&sb, m)
	}
	sb.WriteString("}\n")
	return sb.String()
}

// ident maps a name onto the lexer's identifier token,
// [A-Za-z_$][A-Za-z0-9_$]*: every other byte becomes '_'. Identifiers are
// returned unchanged.
func ident(name string) string {
	id := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '$':
			return r
		}
		return '_'
	}, name)
	if id == "" || (id[0] >= '0' && id[0] <= '9') {
		id = "_" + id
	}
	return id
}

func printModule(sb *strings.Builder, m *Module) {
	fmt.Fprintf(sb, "  module %s {\n", ident(m.Name))
	for _, p := range m.Ports {
		fmt.Fprintf(sb, "    %s %s : %s\n", p.Dir, p.Name, p.Type)
	}
	for _, st := range m.Stmts {
		printStmt(sb, st)
	}
	sb.WriteString("  }\n")
}

func printStmt(sb *strings.Builder, st Stmt) {
	switch s := st.(type) {
	case *Wire:
		fmt.Fprintf(sb, "    wire %s : %s\n", s.Name, s.Type)
	case *Reg:
		fmt.Fprintf(sb, "    reg %s : %s", s.Name, s.Type)
		if s.Init != nil {
			fmt.Fprintf(sb, " init %s", s.Init.Big().String())
		}
		sb.WriteString("\n")
	case *Mem:
		fmt.Fprintf(sb, "    mem %s : %s[%d]\n", s.Name, s.Type, s.Depth)
	case *Inst:
		fmt.Fprintf(sb, "    inst %s of %s\n", s.Name, ident(s.Of))
	case *Node:
		fmt.Fprintf(sb, "    node %s = %s\n", s.Name, ExprString(s.Expr))
	case *MemWrite:
		fmt.Fprintf(sb, "    write(%s, %s, %s, %s)\n", s.Mem,
			ExprString(s.Addr), ExprString(s.Data), ExprString(s.En))
	case *Connect:
		fmt.Fprintf(sb, "    %s <= %s\n", s.Loc, ExprString(s.Expr))
	default:
		fmt.Fprintf(sb, "    ; unknown statement %T\n", st)
	}
}

// ExprString renders an expression in the textual format.
func ExprString(e Expr) string {
	switch x := e.(type) {
	case *Ref:
		return x.Name
	case *Field:
		return x.Inst + "." + x.Port
	case *Lit:
		name := "UInt"
		val := x.Val.Big()
		if x.Typ.Kind == KSInt {
			name = "SInt"
			val = x.Val.SignedBig()
		}
		return fmt.Sprintf("%s<%d>(%s)", name, x.Typ.Width, val.String())
	case *MemRead:
		return fmt.Sprintf("read(%s, %s)", x.Mem, ExprString(x.Addr))
	case *Prim:
		var sb strings.Builder
		sb.WriteString(x.Op.String())
		sb.WriteString("(")
		for i, a := range x.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(ExprString(a))
		}
		for _, c := range x.Consts {
			sb.WriteString(", ")
			fmt.Fprintf(&sb, "%d", c)
		}
		sb.WriteString(")")
		return sb.String()
	}
	return fmt.Sprintf("?expr(%T)", e)
}
