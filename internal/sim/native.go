package sim

import (
	"fmt"
	"sort"

	"repro/internal/bitvec"
)

// Native-kernel hook: internal/codegen compiles a linked thread's
// instruction stream to straight-line Go source, builds it out of process
// as a plugin, and installs the resulting functions here. A native kernel
// indexes the same unified state slice evalLinked does, so installing one
// between Run calls is state-preserving — the service layer hot-swaps live
// sessions from interpreted to native exactly this way.

// NativeThreadFunc is the ABI of one generated per-thread eval function.
// It is a type alias (not a defined type) on purpose: plugin symbols are
// plain function values and must type-assert structurally, without sharing
// this package across the plugin boundary.
//
//   - st is the engine's unified state slice (the evalLinked layout:
//     [globals | imms | frames], indices baked into the generated code);
//   - mems are the narrow memory arrays, indexed by MemSpec position;
//   - memwr buffers one narrow memory write (mem, addr, data) for the
//     update phase — the generated code has already applied enable gating
//     and data masking;
//   - wide evaluates linked wide node i through the boxed bitvec path.
type NativeThreadFunc = func(st []uint64, mems [][]uint64, memwr func(mem uint32, addr, data uint64), wide func(node uint32))

// nativeThread pairs one thread's generated eval function with its runtime
// callbacks, built once at install time so steady-state cycles allocate
// nothing.
type nativeThread struct {
	fn    NativeThreadFunc
	memwr func(mem uint32, addr, data uint64)
	wide  func(node uint32)
}

// InstallNative switches the engine's eval phase to the given per-thread
// native kernels (the generated code hard-codes the linked state layout,
// which every view shares); publish, the barrier, Poke/Peek, and Reset are
// unchanged, so a kernel may be installed between any two Run calls of a
// live engine.
func (e *Engine) InstallNative(fns []NativeThreadFunc) error {
	if len(fns) != e.prog.NumThreads {
		return fmt.Errorf("sim: kernel has %d thread funcs, program has %d threads", len(fns), e.prog.NumThreads)
	}
	for t := range fns {
		if fns[t] == nil {
			return fmt.Errorf("sim: nil native func for thread %d", t)
		}
	}
	for _, v := range e.views {
		v.native = make([]nativeThread, len(fns))
		for t := range fns {
			tc := v.tcs[t]
			v.native[t] = nativeThread{
				fn: fns[t],
				memwr: func(mem uint32, addr, data uint64) {
					tc.memBuf = append(tc.memBuf, memWrite{mem: mem, addr: addr, data: data})
				},
				wide: func(node uint32) {
					evalWide(&e.lp.WideNodes[node], e.prog, v.gs, tc,
						func(r uint32) uint64 { return v.state[r] },
						func(r uint32, x uint64) { v.state[r] = x })
				},
			}
		}
	}
	return nil
}

// NativeInstalled reports whether the engine's eval phase runs native
// kernels.
func (e *Engine) NativeInstalled() bool { return e.views[0].native != nil }

// StateHash hashes the engine's complete architectural state — registers,
// output ports, and memory contents — into one value. Two engines that
// simulated the same design over the same input sequence must agree; the
// codegen CI smoke and the cross-engine tests compare backends this way.
// Inputs are excluded (they are the test harness's, not the design's) and
// so is scratch state. Registers and outputs fold in architectural
// (name-sorted) order, never layout order, so the hash is identical across
// backends AND across partitionings of the same design — refined and
// unrefined compiles of one circuit must produce the same hash.
func (e *Engine) StateHash() uint64 {
	h := fnv{1469598103934665603}
	p, gs := e.prog, e.gs()
	for _, i := range p.regHashOrder() {
		r := &p.Regs[i]
		if r.Wide {
			h.vec(gs.wide[r.Slot])
		} else {
			h.u64(gs.words[r.Slot])
		}
	}
	for _, i := range p.outputHashOrder() {
		o := &p.Outputs[i]
		if o.Wide {
			h.vec(gs.wide[o.Slot])
		} else {
			h.u64(gs.words[o.Slot])
		}
	}
	for mi := range p.Mems {
		if p.Mems[mi].Wide {
			for _, v := range gs.wideMems[mi] {
				h.vec(v)
			}
		} else {
			for _, v := range gs.mems[mi] {
				h.u64(v)
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

// vec folds one wide value (width plus payload words) into the hash.
func (f *fnv) vec(v bitvec.Vec) {
	f.u64(uint64(v.Width))
	for _, w := range v.Words {
		f.u64(w)
	}
}
