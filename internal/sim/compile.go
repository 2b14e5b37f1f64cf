package sim

import (
	"fmt"
	"sort"

	"repro/internal/cgraph"
	"repro/internal/costmodel"
	"repro/internal/firrtl"
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
	// protocol; Shared-mode compilation rejects dereplicated partitions.
	Dereps []cgraph.DerepGroup
}

// Config controls compilation.
type Config struct {
	// OptLevel: 0 = direct translation; 1 = constant folding + copy
	// propagation; 2 = additionally fuse masking/truncation into producers
	// (the "newer compiler" configuration of Figure 10).
	OptLevel int
	// Model attributes costs to threads (defaults to costmodel.Default()).
	Model *costmodel.Model
	// Shared stores every combinational value in the shared global array
	// instead of thread-private temps. This is the Verilator-style
	// compilation model: tasks on different threads communicate through
	// shared slots mid-cycle. Shared mode records per-vertex code marks
	// (for task boundaries) and skips the stream optimizer, whose motion
	// would invalidate them.
	Shared bool
	// Workers bounds the parallelism of compilation itself: per-thread
	// code emission and optimization fan out one task per partition.
	// <= 0 means all cores; 1 forces serial compilation. The Program is
	// bit-identical for every worker count: threads compile against
	// private constant pools that are merged in thread order afterwards.
	// Shared mode always compiles serially (its scratch-slot allocator
	// mutates compiler-global counters).
	Workers int
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
// per partition. Partitions must be self-contained (every non-source
// predecessor of a partition vertex is in the partition, earlier in the
// list) — core.Partition results and SerialSpec satisfy this.
func Compile(g *cgraph.Graph, parts []PartSpec, cfg Config) (*Program, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("sim: no partitions")
	}
	model := costmodel.Default()
	if cfg.Model != nil {
		model = *cfg.Model
	}
	c := &compiler{
		g:     g,
		prog:  &Program{Design: g.Name, NumThreads: len(parts), Shared: cfg.Shared},
		model: model,
		cfg:   cfg,
	}
	if err := c.layout(parts); err != nil {
		return nil, err
	}

	// Phase A: emit (and optimize) every thread's code, one task per
	// partition. Each task writes only its own ThreadCode and thread-local
	// constant pools, so scheduling cannot influence the output. Shared
	// mode allocates scratch slots from compiler-global counters and must
	// stay serial.
	workers := cfg.Workers
	if cfg.Shared {
		workers = 1
	}
	pool := par.NewPool(workers)
	tcs := make([]*threadCompiler, len(parts))
	err := pool.ForEachErr(len(parts), func(t int) error {
		tc := newThreadCompiler(c, t)
		tcs[t] = tc
		if err := tc.compileAll(parts[t]); err != nil {
			return err
		}
		if cfg.OptLevel > 0 && !cfg.Shared {
			// Optimize against the thread-local pool; folding may extend it.
			tc.imms = optimize(tc.imms, tc.th, cfg.OptLevel)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Phase B: merge thread-local pools into the Program in thread order —
	// a deterministic, worker-count-independent renumbering.
	c.merge(tcs)

	if cfg.Shared {
		// Scratch slots allocated during compilation extend the array.
		c.prog.GlobalWords = int(c.nextWord)
	}
	// Cost statistics per thread (after optimization the vertex set is
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
			switch {
			case g.Vs[v].Kind == cgraph.KindMemWrite:
				th.Branches++
			case g.Vs[v].Kind == cgraph.KindLogic && g.Vs[v].Op == firrtl.OpMux:
				th.Branches++
			}
		}
	})
	return c.prog, nil
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
			if RefTag(*ref) == RefImm {
				*ref = MakeRef(RefImm, immMap[RefIdx(*ref)])
			}
		}
		for i := range tc.th.Code {
			in := &tc.th.Code[i]
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
	g     *cgraph.Graph
	prog  *Program
	model costmodel.Model
	cfg   Config

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

	// Shared mode: per-vertex global slots (first word) for combinational
	// results and the running allocation counter.
	sharedOf map[cgraph.VID]uint32
	nextWord uint32
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
	// two-phase eval/commit protocol, which Shared mode does not run.
	c.derepCommits = map[int][]derepCommit{}
	demoted := map[cgraph.VID]int{}
	for t := range parts {
		for _, d := range parts[t].Dereps {
			if c.cfg.Shared {
				return fmt.Errorf("sim: shared-slot compilation cannot express dereplicated register groups")
			}
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
	p.inputByName = map[string]int{}
	p.outputByName = map[string]int{}
	p.regByName = make(map[string]int, len(g.Regs))
	p.Regs = make([]RegSlot, 0, len(g.Regs))
	for _, in := range g.Inputs {
		v := &g.Vs[in]
		ps := PortSlot{Name: v.Name, Width: v.Type.Width, Slot: word}
		c.globalOf[in] = MakeRef(RefGlobal, word)
		word += uint32(words(v.Type.Width))
		p.inputByName[ps.Name] = len(p.Inputs)
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
			c.globalOf[s] = MakeRef(RefGlobal, slot)
			switch v.Kind {
			case cgraph.KindRegWrite:
				// The register's read vertex shares the slot.
				c.globalOf[g.Regs[v.Reg].Read] = MakeRef(RefGlobal, slot)
				p.regByName[g.Regs[v.Reg].Name] = len(p.Regs)
				p.Regs = append(p.Regs, RegSlot{
					Name: g.Regs[v.Reg].Name, Width: v.Type.Width,
					Slot: slot, Init: g.Regs[v.Reg].Init,
				})
			case cgraph.KindOutput:
				p.outputByName[v.Name] = len(p.Outputs)
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
				c.globalOf[r.Read] = MakeRef(RefGlobal, slot)
				p.regByName[r.Name] = len(p.Regs)
				p.Regs = append(p.Regs, RegSlot{
					Name: r.Name, Width: g.Vs[r.Write].Type.Width,
					Slot: slot, Init: r.Init,
				})
			}
		}
		th.ShadowWords = int(off) + len(parts[t].Dereps)
		word = padTo(word+uint32(th.ShadowWords), SegmentWords)
	}
	c.nextWord = word
	if c.cfg.Shared {
		// Every combinational vertex gets shared slots; one writer each.
		c.sharedOf = map[cgraph.VID]uint32{}
		for vi := range g.Vs {
			v := cgraph.VID(vi)
			k := g.Vs[v].Kind
			if k.IsSource() || k.IsSink() {
				continue
			}
			c.sharedOf[v] = c.nextWord
			c.nextWord += uint32(words(g.Vs[v].Type.Width))
		}
	}
	p.GlobalWords = int(c.nextWord)

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
	// tempOf maps a combinational vertex to its first result temp.
	tempOf   map[cgraph.VID]uint32
	nextTemp uint32

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
	tc.th.Code = make([]Instr, 0, len(part.Vertices)) // about one instruction per vertex
	for _, v := range part.Vertices {
		if tc.c.cfg.Shared {
			tc.th.Marks = append(tc.th.Marks, len(tc.th.Code))
		}
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
		tc.emit(Instr{Op: OpCopy, Dst: MakeRef(RefShadow, dc.idx), A: ref, Mask: maskOf(dc.width)})
	}
	if tc.c.cfg.Shared {
		tc.th.Marks = append(tc.th.Marks, len(tc.th.Code))
	}
	tc.th.NumTemps = int(tc.nextTemp)
	return nil
}

// scratch allocates one fresh word for an intermediate value: a temp, or in
// Shared mode a global scratch slot.
func (tc *threadCompiler) scratch() uint32 {
	if tc.c.cfg.Shared {
		tc.c.nextWord++
		return MakeRef(RefGlobal, tc.c.nextWord-1)
	}
	tc.nextTemp++
	return MakeRef(RefLocal, tc.nextTemp-1)
}
