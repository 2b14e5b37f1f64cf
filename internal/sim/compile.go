package sim

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/cgraph"
	"repro/internal/costmodel"
	"repro/internal/par"
)

// PartSpec describes one thread's share of the circuit: the vertices it
// executes (topologically ordered, replication included) and the sink
// vertices it owns.
type PartSpec struct {
	Vertices []cgraph.VID
	Sinks    []cgraph.VID
	// Dereps lists the dereplicated register groups this thread owns
	// (core.Result.DerepsOf): for each group the thread commits the driver
	// vertex U into one extra shadow word per cycle, and every demoted
	// register's read vertex aliases that committed slot. The demoted write
	// sinks appear in no thread's Vertices or Sinks. Requires the two-phase
	// eval/commit protocol.
	Dereps []cgraph.DerepGroup
}

// Config controls compilation.
type Config struct {
	// OptLevel 0 emits every vertex literally, the code Figure 10's O0
	// bars, translation validation's reference, VertexInstrs and
	// CalibrateModel cost. Any other value optimises as it emits
	// (threadCompiler.emit folds constants and aliases copies) and then
	// sweeps each thread once (dead temps go, sink copies fuse into their
	// producers): the "newer compiler" configuration of Figure 10. The
	// pipeline passes 2.
	OptLevel int
}

// SerialSpec builds the single-partition PartSpec covering the whole graph.
func SerialSpec(g *cgraph.Graph) []PartSpec {
	var vs []cgraph.VID
	for _, v := range g.Topo {
		if !g.Vs[v].Kind.IsSource() {
			vs = append(vs, v)
		}
	}
	return []PartSpec{{Vertices: vs, Sinks: g.Sinks()}}
}

// Compile translates the graph into a Program with one instruction stream
// per partition, linked. Partitions must be self-contained (every
// non-source predecessor of a partition vertex is in the partition, earlier
// in the list) — core.Partition results and SerialSpec satisfy this.
// Threads compile on a GOMAXPROCS-sized pool; the Program is bit-identical
// for every GOMAXPROCS.
func Compile(g *cgraph.Graph, parts []PartSpec, cfg Config) (*Program, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("sim: no partitions")
	}
	model := costmodel.Default()
	c := &compiler{
		g:    g,
		prog: &Program{Design: g.Name, NumThreads: len(parts)},
		opt:  cfg.OptLevel != 0,
	}
	if err := c.layout(parts); err != nil {
		return nil, err
	}

	// Phase A: emit (and sweep) every thread's code, one task per
	// partition. Each task writes only its own ThreadCode, code buffer and
	// constant pool, so scheduling cannot influence the output.
	pool := par.NewPool()
	tcs := make([]*threadCompiler, len(parts))
	err := pool.ForEachErr(len(parts), func(t int) error {
		tc := newThreadCompiler(c, t)
		tcs[t] = tc
		if err := tc.compileAll(parts[t]); err != nil {
			return err
		}
		if c.opt {
			tc.sweep()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Phase B: merge thread-local pools into the Program in thread order —
	// a deterministic, worker-count-independent renumbering.
	c.merge(tcs)

	// Cost statistics per thread (optimisation leaves the vertex set
	// unchanged; the model works on vertices, matching the paper's
	// IR-level prediction).
	pool.ForEach(len(parts), func(t int) {
		th := &c.prog.Threads[t]
		for _, v := range parts[t].Vertices {
			f := costmodel.Features(&g.Vs[v])
			for cl := 0; cl < int(costmodel.NumClasses); cl++ {
				th.Features[cl] += f[cl]
			}
			th.CostUnits += model.VertexCost(&g.Vs[v])
			if g.Vs[v].IsBranch() {
				th.Branches++
			}
		}
	})
	// Link: resolve each thread's tagged buffer into its Code.
	code := make([][]instr, len(tcs))
	for t, tc := range tcs {
		code[t] = tc.code
	}
	p := c.prog
	p.reindex()
	p.link(code)
	p.fp = p.fingerprint()
	return p, nil
}

// VertexInstrs runs the serial O0 emitter over g and returns how many
// instructions each non-source vertex emits, the temp words the serial
// thread uses, and the input region's words (padded to a segment). A
// vertex emits the same code in every partition that holds it
// (TestVertexInstrsMatchPartitions), so these counts cost any schedule of
// g's vertices without compiling it.
func VertexInstrs(g *cgraph.Graph) (counts map[cgraph.VID]int, temps, inputWords int, err error) {
	parts := SerialSpec(g)
	c := &compiler{g: g, prog: &Program{Design: g.Name, NumThreads: 1}}
	if err := c.layout(parts); err != nil {
		return nil, 0, 0, err
	}
	tc := newThreadCompiler(c, 0)
	counts = make(map[cgraph.VID]int, len(parts[0].Vertices))
	for _, v := range parts[0].Vertices {
		start := len(tc.code)
		if err := tc.compileVertex(v); err != nil {
			return nil, 0, 0, fmt.Errorf("sim: vertex %s: %w", g.Vs[v].Name, err)
		}
		counts[v] = len(tc.code) - start
	}
	return counts, int(tc.nextTemp), tc.th.GlobalOff, nil
}

// merge folds each thread's private immediate pool into the Program, in
// thread order, rewriting the thread's code to the global indices. Running
// it serially over an always-identical per-thread input is what makes the
// compiled Program bit-identical regardless of how many workers ran phase A.
func (c *compiler) merge(tcs []*threadCompiler) {
	for _, tc := range tcs {
		immMap := make([]uint32, len(tc.imms))
		for i, v := range tc.imms {
			immMap[i] = c.internImm(v)
		}
		remap := func(ref *uint32) {
			if refTag(*ref) == refImm {
				*ref = makeRef(refImm, immMap[refIdx(*ref)])
			}
		}
		for i := range tc.code {
			in := &tc.code[i]
			remap(&in.A)
			remap(&in.B)
			remap(&in.C)
		}
	}
}

// sinkSlot is where a sink's value lands: its first word's index within
// the owning thread's shadow (and commit segment).
type sinkSlot struct {
	thread int
	idx    uint32
}

// derepCommit is one dereplication commit a thread owes per cycle: store
// vertex u's value into shadow word idx (appended after the thread's sink
// code by compileAll).
type derepCommit struct {
	u     cgraph.VID
	idx   uint32
	width int
}

type compiler struct {
	g    *cgraph.Graph
	prog *Program
	// opt selects the optimising emitter (Config.OptLevel != 0).
	opt bool

	// globalOf[v] is the global ref of the first word of a source vertex
	// or sink result.
	globalOf  map[cgraph.VID]uint32
	sinkSlots map[cgraph.VID]sinkSlot
	// memBase[m] is the MemSpec index of graph memory m's first word
	// column.
	memBase []uint32

	immIndex map[uint64]uint32

	// derepCommits[t] are the dereplication commits thread t appends after
	// its vertex code: copy the group driver's value into shadow word idx.
	derepCommits map[int][]derepCommit
}

// layout assigns global storage: an input region, then one padded segment
// per thread holding its sinks (registers first grouped by reader thread
// and topo-ordered, per Figure 5). A value of width w takes words(w)
// consecutive words everywhere.
func (c *compiler) layout(parts []PartSpec) error {
	g := c.g
	p := c.prog
	c.globalOf = map[cgraph.VID]uint32{}
	c.sinkSlots = map[cgraph.VID]sinkSlot{}
	c.immIndex = map[uint64]uint32{}

	// Dereplicated registers: their write sinks are demoted (owned and
	// executed by no thread); the owning thread commits the group driver
	// into one shared slot instead. The aliasing below depends on the
	// two-phase eval/commit protocol.
	c.derepCommits = map[int][]derepCommit{}
	demoted := map[cgraph.VID]int{}
	for t := range parts {
		for _, d := range parts[t].Dereps {
			for _, ri := range d.Regs {
				if int(ri) < 0 || int(ri) >= len(g.Regs) {
					return fmt.Errorf("sim: derep group references register %d out of range", ri)
				}
				w := g.Regs[ri].Write
				if prev, dup := demoted[w]; dup {
					return fmt.Errorf("sim: register %s demoted by threads %d and %d", g.Regs[ri].Name, prev, t)
				}
				demoted[w] = t
			}
		}
	}

	// Owner thread per sink.
	owner := map[cgraph.VID]int{}
	for t := range parts {
		for _, s := range parts[t].Sinks {
			if prev, dup := owner[s]; dup {
				return fmt.Errorf("sim: sink %s owned by threads %d and %d", g.Vs[s].Name, prev, t)
			}
			if _, dem := demoted[s]; dem {
				return fmt.Errorf("sim: demoted sink %s still owned by thread %d", g.Vs[s].Name, t)
			}
			owner[s] = t
		}
	}
	for _, s := range g.Sinks() {
		if _, ok := owner[s]; !ok {
			if _, dem := demoted[s]; dem {
				continue // published via the group driver's committed slot
			}
			return fmt.Errorf("sim: sink %s not owned by any thread", g.Vs[s].Name)
		}
	}

	// Reader thread sets for register reads: which threads execute a
	// vertex consuming the register's value.
	partOf := make([][]int, g.NumVertices())
	for t := range parts {
		for _, v := range parts[t].Vertices {
			partOf[v] = append(partOf[v], t)
		}
	}
	minReader := func(read cgraph.VID) int {
		best := 1 << 30
		for _, succ := range g.Succs[read] {
			for _, t := range partOf[succ] {
				if t < best {
					best = t
				}
			}
		}
		return best
	}

	// Input region.
	var word uint32
	p.Regs = make([]RegSlot, 0, len(g.Regs))
	for _, in := range g.Inputs {
		v := &g.Vs[in]
		ps := PortSlot{Name: v.Name, Width: v.Type.Width, Slot: word}
		c.globalOf[in] = makeRef(refGlobal, word)
		word += uint32(words(v.Type.Width))
		p.Inputs = append(p.Inputs, ps)
	}
	// Pad input region to a segment boundary.
	word = padTo(word, SegmentWords)

	// Memories: one narrow column per word of the element.
	c.memBase = make([]uint32, len(g.Mems))
	for mi := range g.Mems {
		m := &g.Mems[mi]
		c.memBase[mi] = uint32(len(p.Mems))
		for range words(m.Type.Width) {
			p.Mems = append(p.Mems, MemSpec{Name: m.Name, Depth: m.Depth, Width: m.Type.Width})
		}
	}

	// Topo position for segment ordering.
	pos := make([]int32, g.NumVertices())
	for i, v := range g.Topo {
		pos[v] = int32(i)
	}

	// Per-thread segments.
	p.Threads = make([]ThreadCode, len(parts))
	for t := range parts {
		th := &p.Threads[t]
		th.GlobalOff = int(word)
		var sinks []cgraph.VID
		for _, s := range parts[t].Sinks {
			if g.Vs[s].Kind != cgraph.KindMemWrite { // memory writes are buffered, not laid out
				sinks = append(sinks, s)
			}
		}
		// Group by reader thread of the value (the register's read vertex
		// or, for outputs, the owner), then topo order.
		groupKey := func(s cgraph.VID) int {
			v := &g.Vs[s]
			if v.Kind == cgraph.KindRegWrite {
				return minReader(g.Regs[v.Reg].Read)
			}
			return t
		}
		sort.Slice(sinks, func(a, b int) bool {
			ka, kb := groupKey(sinks[a]), groupKey(sinks[b])
			if ka != kb {
				return ka < kb
			}
			return pos[sinks[a]] < pos[sinks[b]]
		})
		var off uint32
		for _, s := range sinks {
			c.sinkSlots[s] = sinkSlot{thread: t, idx: off}
			slot := word + off
			v := &g.Vs[s]
			off += uint32(words(v.Type.Width))
			c.globalOf[s] = makeRef(refGlobal, slot)
			switch v.Kind {
			case cgraph.KindRegWrite:
				// The register's read vertex shares the slot.
				c.globalOf[g.Regs[v.Reg].Read] = makeRef(refGlobal, slot)
				p.Regs = append(p.Regs, RegSlot{
					Name: g.Regs[v.Reg].Name, Width: v.Type.Width,
					Slot: slot, Init: g.Regs[v.Reg].Init,
				})
			case cgraph.KindOutput:
				p.Outputs = append(p.Outputs, PortSlot{Name: v.Name, Width: v.Type.Width, Slot: slot})
			}
		}
		// Dereplication slots extend the segment: one committed word per
		// group, shared by every demoted register's read vertex. The slot
		// lives in this thread's commit segment and is written only by the
		// thread's shadow memcpy, so during eval every reader (any thread)
		// sees the previous cycle's driver value — exactly the demoted
		// registers' current value.
		for di, d := range parts[t].Dereps {
			ux := &g.Vs[d.U]
			if ux.Type.Width > 64 {
				return fmt.Errorf("sim: derep driver %s is wide (%d bits)", ux.Name, ux.Type.Width)
			}
			idx := off + uint32(di)
			slot := word + idx
			c.derepCommits[t] = append(c.derepCommits[t], derepCommit{u: d.U, idx: idx, width: ux.Type.Width})
			for _, ri := range d.Regs {
				r := &g.Regs[ri]
				if g.Vs[r.Write].Type.Width != ux.Type.Width {
					return fmt.Errorf("sim: demoted register %s width %d != driver %s width %d",
						r.Name, g.Vs[r.Write].Type.Width, ux.Name, ux.Type.Width)
				}
				c.globalOf[r.Read] = makeRef(refGlobal, slot)
				p.Regs = append(p.Regs, RegSlot{
					Name: r.Name, Width: g.Vs[r.Write].Type.Width,
					Slot: slot, Init: r.Init,
				})
			}
		}
		th.ShadowWords = int(off) + len(parts[t].Dereps)
		word = padTo(word+uint32(th.ShadowWords), SegmentWords)
	}
	p.GlobalWords = int(word)

	// Registers with no read-side slot assignment (write pruned? cannot
	// happen: writes are sinks and always live). Defensive check.
	for ri := range g.Regs {
		if _, ok := c.globalOf[g.Regs[ri].Read]; !ok {
			return fmt.Errorf("sim: register %s has no storage", g.Regs[ri].Name)
		}
	}
	return nil
}

func padTo(x, align uint32) uint32 {
	if r := x % align; r != 0 {
		x += align - r
	}
	return x
}

// internImm interns a narrow literal into the Program's global pool
// (merge phase only).
func (c *compiler) internImm(v uint64) uint32 {
	if idx, ok := c.immIndex[v]; ok {
		return idx
	}
	idx := uint32(len(c.prog.Imms))
	c.prog.Imms = append(c.prog.Imms, v)
	c.immIndex[v] = idx
	return idx
}

// threadCompiler holds per-thread compile state. Temps (vertex result
// words and scratch words) are allocated from one sequential counter.
// Immediates go to a thread-private pool so threads can compile
// concurrently; compiler.merge renumbers them into the Program afterwards.
type threadCompiler struct {
	c  *compiler
	t  int
	th *ThreadCode
	// code is the thread's instruction buffer, which link resolves and
	// Compile then drops.
	code []instr
	// tempOf maps a combinational vertex to its first result temp.
	tempOf   map[cgraph.VID]uint32
	nextTemp uint32

	// The optimising emitter's per-temp state: alias[t] is the ref a read
	// of temp t resolves to (t itself unless its definition became an
	// alias), and produced[t] the mask of t's defining instruction.
	alias    []uint32
	produced []uint64

	// Thread-local constant pool. Code emitted in phase A references it by
	// local index.
	imms     []uint64
	immIndex map[uint64]uint32

	// lowerSteps is the word steps spent so far on vertices touching wide
	// values (lower.go), bounded by maxLowerSteps.
	lowerSteps int
}

func newThreadCompiler(c *compiler, t int) *threadCompiler {
	return &threadCompiler{
		c: c, t: t, th: &c.prog.Threads[t],
		tempOf:   map[cgraph.VID]uint32{},
		immIndex: map[uint64]uint32{},
	}
}

// internImm interns a narrow literal into the thread-local pool.
func (tc *threadCompiler) internImm(v uint64) uint32 {
	if idx, ok := tc.immIndex[v]; ok {
		return idx
	}
	idx := uint32(len(tc.imms))
	tc.imms = append(tc.imms, v)
	tc.immIndex[v] = idx
	return idx
}

// compileAll emits the code for one thread's partition.
func (tc *threadCompiler) compileAll(part PartSpec) error {
	tc.code = make([]instr, 0, len(part.Vertices)) // about one instruction per vertex
	for _, v := range part.Vertices {
		if err := tc.compileVertex(v); err != nil {
			return fmt.Errorf("sim: thread %d vertex %s: %w", tc.t, tc.c.g.Vs[v].Name, err)
		}
	}
	// Dereplication commits: after all owned logic, copy each group
	// driver's value into its shadow word. Widths are equal by
	// construction, so no sign extension is needed — the committed bits
	// are exactly what the demoted register writes would have stored.
	for _, dc := range tc.c.derepCommits[tc.t] {
		ref, err := tc.narrowRef(cgraph.Operand{V: dc.u})
		if err != nil {
			return fmt.Errorf("sim: thread %d derep driver %s: %w", tc.t, tc.c.g.Vs[dc.u].Name, err)
		}
		tc.emit(instr{Op: OpCopy, Dst: makeRef(refShadow, dc.idx), A: ref, Mask: maskOf(dc.width)})
	}
	tc.th.NumTemps = int(tc.nextTemp)
	return nil
}

// sweep finishes an optimising compile of one thread, over the reader
// count of every temp. A backward pass drops each local definition nothing
// reads, releasing its operands, so chains of dead temps go at once. A
// forward pass then fuses each copy that is its local source's only reader
// into the source's producer, when narrowing the producer's mask equals
// masking afterwards (Traits.MaskFusable): the producer takes the copy's
// mask and writes its destination, typically a sink's shadow slot. Memory
// writes and shadow writes are never dropped, and temps keep their numbers.
func (tc *threadCompiler) sweep() {
	code := tc.code
	readers := make([]int32, tc.nextTemp)
	reads := func(in *instr, d int32) {
		refs := [3]uint32{in.A, in.B, in.C}
		for _, r := range refs[:TraitsOf(in.Op).Reads] {
			if refTag(r) == refLocal {
				readers[refIdx(r)] += d
			}
		}
	}
	definesLocal := func(in *instr) bool { return definesDst(in.Op) && refTag(in.Dst) == refLocal }
	for i := range code {
		reads(&code[i], 1)
	}
	for i := len(code) - 1; i >= 0; i-- {
		if in := &code[i]; definesLocal(in) && readers[refIdx(in.Dst)] == 0 {
			reads(in, -1)
			in.Op = OpNop
		}
	}
	def := make([]int32, tc.nextTemp) // the pc defining each temp
	for i := range code {
		in := &code[i]
		if in.Op == OpCopy && refTag(in.A) == refLocal && readers[refIdx(in.A)] == 1 {
			if p := &code[def[refIdx(in.A)]]; TraitsOf(p.Op).MaskFusable {
				p.Mask &= in.Mask
				p.Dst = in.Dst
				in.Op = OpNop
				if refTag(in.Dst) == refLocal {
					def[refIdx(in.Dst)] = def[refIdx(in.A)]
				}
				continue
			}
		}
		if definesLocal(in) {
			def[refIdx(in.Dst)] = int32(i)
		}
	}
	tc.code = slices.DeleteFunc(code, func(in instr) bool { return in.Op == OpNop })
}

// scratch allocates one fresh temp word for an intermediate value.
func (tc *threadCompiler) scratch() uint32 {
	tc.nextTemp++
	return makeRef(refLocal, tc.nextTemp-1)
}
