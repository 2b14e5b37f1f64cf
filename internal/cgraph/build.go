package cgraph

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/firrtl"
)

// Build constructs the split circuit DAG from a checked, flat, lowered
// circuit (see firrtl.Flatten and firrtl.Lower). Wires and alias nodes are
// resolved away; combinational vertices unreachable from any sink are
// pruned. Build fails on combinational cycles and on untyped operands (a
// circuit firrtl.Check never typed).
func Build(c *firrtl.Circuit) (*Graph, error) {
	if len(c.Modules) != 1 {
		return nil, fmt.Errorf("cgraph: circuit must be flat")
	}
	m := c.Modules[0]
	// Every vertex comes from one port or one statement (a register yields
	// a read and a write), so Vs never has to grow.
	nv := len(m.Ports)
	for _, st := range m.Stmts {
		switch st.(type) {
		case *firrtl.Reg:
			nv += 2
		case *firrtl.Mem, *firrtl.Node, *firrtl.MemWrite:
			nv++
		}
	}
	b := &builder{
		g:       &Graph{Name: c.Name, Vs: make([]Vertex, 0, nv), byName: make(map[string]VID, nv)},
		aliases: map[string]string{},
		drivers: map[string]firrtl.Expr{},
	}
	return b.build(m)
}

type builder struct {
	g *Graph
	// aliases maps a name to the name it is a pure alias of (wire driven by
	// a ref, or node bound to a ref).
	aliases map[string]string
	// drivers maps wire/reg/output names to the atom expression driving
	// them.
	drivers map[string]firrtl.Expr
}

func (b *builder) addVertex(v Vertex) VID {
	id := VID(len(b.g.Vs))
	b.g.Vs = append(b.g.Vs, v)
	if v.Name != "" {
		b.g.byName[v.Name] = id
	}
	return id
}

// resolve follows alias chains to a canonical name. Alias cycles (wires
// driving each other) terminate after len(aliases) steps and surface later
// as unresolved references.
func (b *builder) resolve(name string) string {
	for i := 0; i <= len(b.aliases); i++ {
		next, ok := b.aliases[name]
		if !ok {
			return name
		}
		name = next
	}
	return name
}

func (b *builder) build(m *firrtl.Module) (*Graph, error) {
	g := b.g

	// Pass 1: create source vertices (inputs, register reads, memory
	// sources) and record wire/output drivers and aliases.
	for _, p := range m.Ports {
		if p.Type.IsClock() {
			continue
		}
		if p.Dir == firrtl.Input {
			id := b.addVertex(Vertex{Kind: KindInput, Name: p.Name, Type: p.Type, Reg: -1, Mem: -1})
			g.Inputs = append(g.Inputs, id)
		}
	}
	for _, st := range m.Stmts {
		switch s := st.(type) {
		case *firrtl.Reg:
			ri := len(g.Regs)
			init := bitvec.New(s.Type.Width)
			if s.Init != nil {
				init = *s.Init
			}
			id := b.addVertex(Vertex{Kind: KindRegRead, Name: s.Name, Type: s.Type, Reg: ri, Mem: -1})
			g.Regs = append(g.Regs, RegInfo{Name: s.Name, Type: s.Type, Init: init, Read: id, Write: None})
		case *firrtl.Mem:
			mi := len(g.Mems)
			id := b.addVertex(Vertex{
				Kind: KindMemSource, Name: s.Name, Type: s.Type, Reg: -1, Mem: mi,
			})
			g.Mems = append(g.Mems, MemInfo{Name: s.Name, Type: s.Type, Depth: s.Depth, Source: id})
		}
	}

	// Pass 2: record aliases and drivers. Alias chains must be recorded
	// before logic vertices resolve their operands, and connects may appear
	// anywhere relative to their uses (wires), so gather first.
	for _, st := range m.Stmts {
		switch s := st.(type) {
		case *firrtl.Node:
			if r, ok := s.Expr.(*firrtl.Ref); ok {
				b.aliases[s.Name] = r.Name
			}
		case *firrtl.Connect:
			b.drivers[s.Loc] = s.Expr
		}
	}
	// Wires driven by plain refs are aliases too, and so are output ports
	// when read from inside the module.
	for _, st := range m.Stmts {
		if w, ok := st.(*firrtl.Wire); ok {
			d, ok := b.drivers[w.Name]
			if !ok {
				return nil, fmt.Errorf("cgraph: wire %s has no driver", w.Name)
			}
			if r, ok := d.(*firrtl.Ref); ok {
				b.aliases[w.Name] = r.Name
			}
		}
	}
	for _, p := range m.Ports {
		if p.Dir == firrtl.Output && !p.Type.IsClock() {
			if r, ok := b.drivers[p.Name].(*firrtl.Ref); ok {
				b.aliases[p.Name] = r.Name
			}
		}
	}

	// atomOperand converts a lowered atom (Ref or Lit) into an Operand.
	// Refs through wires/alias nodes resolve to their canonical vertex.
	var atomOperand func(e firrtl.Expr) (Operand, error)
	atomOperand = func(e firrtl.Expr) (Operand, error) {
		switch x := e.(type) {
		case *firrtl.Lit:
			return Operand{V: None, Lit: x}, nil
		case *firrtl.Ref:
			name := b.resolve(x.Name)
			if id, ok := g.byName[name]; ok {
				return Operand{V: id}, nil
			}
			// A wire driven by a literal resolves to that literal.
			if d, ok := b.drivers[name]; ok {
				if lit, isLit := d.(*firrtl.Lit); isLit {
					return Operand{V: None, Lit: lit}, nil
				}
			}
			return Operand{}, fmt.Errorf("cgraph: unresolved reference %q", x.Name)
		}
		return Operand{}, fmt.Errorf("cgraph: operand is not an atom: %T (run firrtl.Lower)", e)
	}

	// Pass 3: create combinational vertices in statement order. Lowered IR
	// is def-before-use for nodes, so operands resolve as we go — except
	// wires, which may forward-reference; handle them with a fixup list.
	type fixup struct {
		v   VID
		idx int
		ref string
	}
	var fixups []fixup
	operandOrFixup := func(v VID, idx int, e firrtl.Expr) (Operand, error) {
		op, err := atomOperand(e)
		if err == nil {
			return op, nil
		}
		if r, ok := e.(*firrtl.Ref); ok {
			fixups = append(fixups, fixup{v: v, idx: idx, ref: r.Name})
			return Operand{V: None}, nil
		}
		return Operand{}, err
	}

	for _, st := range m.Stmts {
		n, ok := st.(*firrtl.Node)
		if !ok {
			continue
		}
		if _, isAlias := b.aliases[n.Name]; isAlias {
			continue
		}
		switch e := n.Expr.(type) {
		case *firrtl.Lit:
			b.addVertex(Vertex{Kind: KindConst, Name: n.Name, Type: e.Typ, Reg: -1, Mem: -1,
				Args: []Operand{{V: None, Lit: e}}})
		case *firrtl.MemRead:
			memV, err := atomOperand(&firrtl.Ref{Name: e.Mem})
			if err != nil {
				return nil, fmt.Errorf("cgraph: node %s: %w", n.Name, err)
			}
			mi := g.Vs[memV.V].Mem
			id := VID(len(g.Vs))
			addrOp, err := operandOrFixup(id, 0, e.Addr)
			if err != nil {
				return nil, fmt.Errorf("cgraph: node %s: %w", n.Name, err)
			}
			b.addVertex(Vertex{
				Kind: KindMemRead, Name: n.Name, Type: e.Typ, Reg: -1, Mem: mi,
				Args:     []Operand{addrOp},
				ArgTypes: []firrtl.Type{e.Addr.Type()},
			})
			g.Mems[mi].Reads = append(g.Mems[mi].Reads, id)
		case *firrtl.Prim:
			id := VID(len(g.Vs))
			args := make([]Operand, len(e.Args))
			ats := make([]firrtl.Type, len(e.Args))
			for i, a := range e.Args {
				op, err := operandOrFixup(id, i, a)
				if err != nil {
					return nil, fmt.Errorf("cgraph: node %s: %w", n.Name, err)
				}
				args[i] = op
				ats[i] = a.Type()
			}
			b.addVertex(Vertex{
				Kind: KindLogic, Name: n.Name, Type: e.Typ, Reg: -1, Mem: -1,
				Op: e.Op, Consts: e.Consts, Args: args, ArgTypes: ats,
			})
		default:
			return nil, fmt.Errorf("cgraph: node %s: unexpected expr %T", n.Name, n.Expr)
		}
	}

	// Resolve wire forward references now that all vertices exist.
	for _, f := range fixups {
		op, err := atomOperand(&firrtl.Ref{Name: f.ref})
		if err != nil {
			return nil, err
		}
		g.Vs[f.v].Args[f.idx] = op
	}

	// Pass 4: sinks. Register writes, memory writes, outputs.
	for ri := range g.Regs {
		reg := &g.Regs[ri]
		var drv Operand
		if d, ok := b.drivers[reg.Name]; ok {
			op, err := atomOperand(d)
			if err != nil {
				return nil, fmt.Errorf("cgraph: reg %s driver: %w", reg.Name, err)
			}
			drv = op
		} else {
			// Undriven register holds its value: next = current.
			drv = Operand{V: reg.Read}
		}
		id := b.addVertexNoName(Vertex{
			Kind: KindRegWrite, Name: reg.Name + "$next", Type: reg.Type,
			Reg: ri, Mem: -1, Args: []Operand{drv},
			ArgTypes: []firrtl.Type{reg.Type},
		})
		reg.Write = id
	}
	for _, st := range m.Stmts {
		w, ok := st.(*firrtl.MemWrite)
		if !ok {
			continue
		}
		memV, err := atomOperand(&firrtl.Ref{Name: w.Mem})
		if err != nil {
			return nil, err
		}
		mi := g.Vs[memV.V].Mem
		addr, err := atomOperand(w.Addr)
		if err != nil {
			return nil, err
		}
		data, err := atomOperand(w.Data)
		if err != nil {
			return nil, err
		}
		en, err := atomOperand(w.En)
		if err != nil {
			return nil, err
		}
		id := b.addVertexNoName(Vertex{
			Kind: KindMemWrite, Name: fmt.Sprintf("%s$w%d", w.Mem, len(g.Mems[mi].Writes)),
			Type: g.Mems[mi].Type, Reg: -1, Mem: mi,
			Args:     []Operand{addr, data, en},
			ArgTypes: []firrtl.Type{w.Addr.Type(), w.Data.Type(), w.En.Type()},
		})
		g.Mems[mi].Writes = append(g.Mems[mi].Writes, id)
	}
	for _, p := range m.Ports {
		if p.Dir != firrtl.Output || p.Type.IsClock() {
			continue
		}
		d, ok := b.drivers[p.Name]
		if !ok {
			return nil, fmt.Errorf("cgraph: output %s has no driver", p.Name)
		}
		op, err := atomOperand(d)
		if err != nil {
			return nil, fmt.Errorf("cgraph: output %s: %w", p.Name, err)
		}
		id := b.addVertexNoName(Vertex{
			Kind: KindOutput, Name: p.Name, Type: p.Type, Reg: -1, Mem: -1,
			Args:     []Operand{op},
			ArgTypes: []firrtl.Type{p.Type},
		})
		g.Outputs = append(g.Outputs, id)
	}

	for _, v := range g.Vs {
		untyped := v.Type.Width <= 0
		for _, t := range v.ArgTypes {
			untyped = untyped || t.Width <= 0
		}
		if untyped {
			return nil, fmt.Errorf("cgraph: vertex %s is untyped (run firrtl.Check first)", v.Name)
		}
	}
	if err := b.finish(); err != nil {
		return nil, err
	}
	return g, nil
}

// addVertexNoName adds a vertex without registering its name for reference
// resolution (sink names share the register/output name).
func (b *builder) addVertexNoName(v Vertex) VID {
	id := VID(len(b.g.Vs))
	b.g.Vs = append(b.g.Vs, v)
	return id
}

// finish builds adjacency, prunes dead combinational logic, and computes a
// topological order (error on combinational cycles).
func (b *builder) finish() error {
	g := b.g
	buildAdjacency(g)

	// Prune combinational vertices that reach no sink.
	if n := pruneDead(g); n > 0 {
		g.DeadRemoved = n
		buildAdjacency(g)
	}

	return computeTopo(g)
}

// buildAdjacency fills Preds and Succs. Each side's lists are carved from
// one backing array sized by a counting pass, so rebuilding costs a few
// allocations, not one per vertex.
func buildAdjacency(g *Graph) {
	n := len(g.Vs)
	edges := func(visit func(from, to VID)) {
		for i := range g.Vs {
			v := &g.Vs[i]
			for _, a := range v.Args {
				if a.V != None && v.Kind != KindConst {
					visit(a.V, VID(i))
				}
			}
			// Memory reads additionally depend on the memory's state source.
			if v.Kind == KindMemRead {
				visit(g.Mems[v.Mem].Source, VID(i))
			}
		}
	}
	nIn, nOut := make([]int, n), make([]int, n)
	edges(func(from, to VID) { nOut[from]++; nIn[to]++ })
	g.Preds, g.Succs = carve(nIn), carve(nOut)
	edges(func(from, to VID) {
		g.Succs[from] = append(g.Succs[from], to)
		g.Preds[to] = append(g.Preds[to], from)
	})
}

// carve returns one empty list per vertex with room for count[v] entries,
// all in a single backing array (nil where count is zero).
func carve(count []int) [][]VID {
	total := 0
	for _, c := range count {
		total += c
	}
	buf := make([]VID, total)
	lists := make([][]VID, len(count))
	off := 0
	for v, c := range count {
		if c > 0 {
			lists[v] = buf[off : off : off+c]
			off += c
		}
	}
	return lists
}

// pruneDead removes combinational vertices (logic, const, memread) from
// which no sink is reachable, remapping all IDs. Returns the removed count.
func pruneDead(g *Graph) int {
	n := len(g.Vs)
	live := make([]bool, n)
	stack := make([]VID, 0, n)
	for i := range g.Vs {
		if g.Vs[i].Kind.IsSink() {
			live[i] = true
			stack = append(stack, VID(i))
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range g.Preds[v] {
			if !live[p] {
				live[p] = true
				stack = append(stack, p)
			}
		}
	}
	// Sources always stay (they are state; the simulator must still hold
	// them), as do sinks.
	rep := make([]VID, n)
	removed := 0
	for i := range g.Vs {
		rep[i] = VID(i)
		if !live[i] && !g.Vs[i].Kind.IsSource() {
			rep[i] = None
			removed++
		}
	}
	if removed > 0 {
		renumber(g, rep)
	}
	return removed
}

// renumber compacts g.Vs down to the vertices i with rep[i] == i, in order,
// and returns the old-to-new id map. Every other vertex is dropped: its
// name and every id that named it move to the survivor rep[i], or vanish
// when rep[i] is None. Adjacency and Topo are left to the caller.
func renumber(g *Graph, rep []VID) []VID {
	remap := make([]VID, len(g.Vs))
	kept := 0
	for i := range g.Vs {
		if rep[i] == VID(i) {
			remap[i] = VID(kept)
			g.Vs[kept] = g.Vs[i]
			kept++
		}
	}
	for i, r := range rep {
		if r != VID(i) {
			remap[i] = None
			if r != None {
				remap[i] = remap[r]
			}
		}
	}
	clear(g.Vs[kept:])
	g.Vs = g.Vs[:kept]
	mapID := func(v VID) VID {
		if v == None {
			return None
		}
		return remap[v]
	}
	for i := range g.Vs {
		for j := range g.Vs[i].Args {
			g.Vs[i].Args[j].V = mapID(g.Vs[i].Args[j].V)
		}
	}
	for i := range g.Regs {
		g.Regs[i].Read = mapID(g.Regs[i].Read)
		g.Regs[i].Write = mapID(g.Regs[i].Write)
	}
	for i := range g.Mems {
		g.Mems[i].Source = mapID(g.Mems[i].Source)
		g.Mems[i].Reads = mapIDs(g.Mems[i].Reads, remap)
		g.Mems[i].Writes = mapIDs(g.Mems[i].Writes, remap)
	}
	g.Inputs = mapIDs(g.Inputs, remap)
	g.Outputs = mapIDs(g.Outputs, remap)
	for name, id := range g.byName {
		if nid := mapID(id); nid == None {
			delete(g.byName, name)
		} else {
			g.byName[name] = nid
		}
	}
	return remap
}

func mapIDs(ids []VID, remap []VID) []VID {
	out := ids[:0]
	for _, id := range ids {
		if nid := remap[id]; nid != None {
			out = append(out, nid)
		}
	}
	return out
}

// computeTopo fills g.Topo with a topological order (Kahn's algorithm) and
// reports combinational cycles.
func computeTopo(g *Graph) error {
	n := len(g.Vs)
	indeg := make([]int, n)
	for i := range g.Vs {
		indeg[i] = len(g.Preds[i])
	}
	queue := make([]VID, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, VID(i))
		}
	}
	topo := make([]VID, 0, n)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		topo = append(topo, v)
		for _, s := range g.Succs[v] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(topo) != n {
		var stuck []string
		for i := 0; i < n && len(stuck) < 5; i++ {
			if indeg[i] > 0 {
				stuck = append(stuck, g.Vs[i].Name)
			}
		}
		return fmt.Errorf("cgraph: combinational cycle involving %v", stuck)
	}
	g.Topo = topo
	return nil
}
