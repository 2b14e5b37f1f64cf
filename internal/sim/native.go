package sim

import (
	"fmt"
	"sort"
)

// Native-kernel hook: internal/codegen compiles a linked thread's
// instruction stream to straight-line Go source, builds it out of process
// as a plugin, and installs the resulting functions here. A native kernel
// indexes the same private state array evalLinked does, so installing one
// between Run calls is state-preserving — the service layer hot-swaps live
// sessions from interpreted to native exactly this way.

// NativeThreadFunc is the ABI of one generated per-thread eval function.
// It is a type alias (not a defined type) on purpose: plugin symbols are
// plain function values and must type-assert structurally, without sharing
// this package across the plugin boundary.
//
//   - st is the thread's private state array, a prefix of the unified
//     layout evalLinked runs over ([globals | imms | frames] up to the end
//     of the thread's own frame; indices baked into the generated code);
//   - mems are the thread's own copies of the memory columns, indexed by
//     MemSpec position (nil for a column the thread's code never touches);
//   - memwr buffers one memory write (mem, addr, data) for the update
//     phase — the generated code has already applied enable gating and
//     data masking.
type NativeThreadFunc = func(st []uint64, mems [][]uint64, memwr func(mem uint32, addr, data uint64))

// nativeThread pairs one thread's generated eval function with its runtime
// callback, built once at install time so steady-state cycles allocate
// nothing.
type nativeThread struct {
	fn    NativeThreadFunc
	memwr func(mem uint32, addr, data uint64)
}

// InstallNative switches the engine's eval phase to the given per-thread
// native kernels (the generated code hard-codes the linked state layout,
// whose prefix every thread's private array is); commit, the exchange, the
// barrier, Poke/Peek, and Reset are unchanged, so a kernel may be installed
// between any two Run calls of a live engine.
func (e *Engine) InstallNative(fns []NativeThreadFunc) error {
	if len(fns) != e.prog.NumThreads {
		return fmt.Errorf("sim: kernel has %d thread funcs, program has %d threads", len(fns), e.prog.NumThreads)
	}
	for t := range fns {
		if fns[t] == nil {
			return fmt.Errorf("sim: nil native func for thread %d", t)
		}
	}
	e.native = make([]nativeThread, len(fns))
	for t := range fns {
		tc := e.tcs[t]
		e.native[t] = nativeThread{
			fn: fns[t],
			memwr: func(mem uint32, addr, data uint64) {
				tc.memBuf = append(tc.memBuf, memWrite{mem: mem, addr: addr, data: data})
			},
		}
	}
	return nil
}

// NativeInstalled reports whether the engine's eval phase runs native
// kernels.
func (e *Engine) NativeInstalled() bool { return e.native != nil }

// StateHash hashes the engine's complete architectural state — registers,
// output ports, and memory contents — into one value. Two engines that
// simulated the same design over the same input sequence must agree; the
// codegen CI smoke and the cross-engine tests compare backends this way.
// Inputs are excluded (they are the test harness's, not the design's) and
// so is scratch state. Registers and outputs fold in architectural
// (name-sorted) order, never layout order, so the hash is identical across
// backends AND across partitionings of the same design — refined and
// unrefined compiles of one circuit must produce the same hash. A value
// wider than 64 bits folds in as its width then its words, and a wide
// memory element likewise, so the hash does not depend on how such values
// are stored.
func (e *Engine) StateHash() uint64 { return stateHash(e.prog, e.canon) }

// stateHash is StateHash over one state view: an engine's or a batch
// lane's (BatchEngine.StateHashLane).
func stateHash(p *Program, gs *globalState) uint64 {
	h := fnv{1469598103934665603}
	value := func(slot uint32, width int) {
		if width > 64 {
			h.u64(uint64(width))
		}
		for k := range words(width) {
			h.u64(*gs.at(slot + uint32(k)))
		}
	}
	for _, i := range p.regHashOrder() {
		value(p.Regs[i].Slot, p.Regs[i].Width)
	}
	for _, i := range p.outputHashOrder() {
		value(p.Outputs[i].Slot, p.Outputs[i].Width)
	}
	for _, mi := range p.Memories() {
		m := &p.Mems[mi]
		for a := 0; a < m.Depth; a++ {
			if m.Width > 64 {
				h.u64(uint64(m.Width))
			}
			for k := range words(m.Width) {
				h.u64(gs.mems[mi+k][a])
			}
		}
	}
	return h.h
}

// regHashOrder returns register indices sorted by name: the canonical
// iteration order for StateHash, independent of how the partitioner laid
// the registers out in the global array.
func (p *Program) regHashOrder() []int {
	idx := make([]int, len(p.Regs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return p.Regs[idx[a]].Name < p.Regs[idx[b]].Name })
	return idx
}

// outputHashOrder returns output indices sorted by name (see regHashOrder).
func (p *Program) outputHashOrder() []int {
	idx := make([]int, len(p.Outputs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return p.Outputs[idx[a]].Name < p.Outputs[idx[b]].Name })
	return idx
}
