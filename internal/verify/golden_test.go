package verify

// Golden diagnostic tests pin the exact rendered text of one diagnostic
// per failure class. The thread/pc/slot provenance format is part of the
// verifier's contract — tools (and people) grep these strings — so a
// formatting change must show up as an explicit test diff, not silently.

import (
	"fmt"
	"testing"

	"repro/internal/cgraph"
	"repro/internal/sim"
)

// maskConstSrc keeps a recognizable and-mask constant in the O2 immediate
// pool so the translation case can corrupt it deterministically.
const maskConstSrc = `
circuit G {
  module G {
    input a : UInt<8>
    output o : UInt<32>
    o <= and(UInt<32>(4294967295), asSInt(a))
  }
}
`

// soleReader returns a (defPC, usePC) pair on thread th where usePC, a
// plain instruction, is the only reader of the temp defPC defines and reads
// it through operand A.
func soleReader(t *testing.T, p *sim.Program, th int) (defPC, usePC int) {
	t.Helper()
	code := p.Threads[th].Code
	defAt := map[uint32]int{}
	reads := map[uint32]int{}
	var defs, uses []uint32
	for pc := range code {
		defs, uses = tempDefUse(&code[pc], defs[:0], uses[:0])
		for _, u := range uses {
			reads[u]++
		}
		for _, d := range defs {
			defAt[d] = pc
		}
	}
	for pc := range code {
		in := &code[pc]
		if sim.TraitsOf(in.Op).Reads == 0 || sim.RefTag(in.A) != sim.RefLocal {
			continue
		}
		tmp := sim.RefIdx(in.A)
		if dp, ok := defAt[tmp]; ok && dp < pc && reads[tmp] == 1 {
			return dp, pc
		}
	}
	t.Fatalf("thread %d has no temp with a sole plain reader", th)
	return -1, -1
}

// TestGoldenDiagnostics plants one mutation per check family and pins the
// first Error (or, for the warning cases, Warning) diagnostic of that
// family, fully rendered.
func TestGoldenDiagnostics(t *testing.T) {
	cases := []struct {
		name  string
		check Check
		warn  bool // pin a Warning instead of an Error
		plant func(t *testing.T) *Report
		want  string
	}{
		{
			name:  "race/cross-thread-write",
			check: CheckRace,
			plant: func(t *testing.T) *Report {
				p := mutProgram(t)
				pc := firstLocalDef(t, p, 0)
				p.Threads[0].Code[pc].Dst = sim.MakeRef(sim.RefGlobal, uint32(p.Threads[1].GlobalOff))
				return Program(p, Options{})
			},
			want: "error [race-freedom] thread 0 pc 0 at global word 16 (output \"out\", segment of thread 1): eval-phase write to a shared global word: races with concurrent readers and the owner's commit",
		},
		{
			name:  "closure/missing-def",
			check: CheckClosure,
			plant: func(t *testing.T) *Report {
				p := mutProgram(t)
				defPC, _ := firstLocalUse(t, p, 0)
				p.Threads[0].Code[defPC] = sim.Instr{Op: sim.OpNop}
				return Program(p, Options{})
			},
			want: "error [replication-closure] thread 0 pc 2 at state word 32 = temp 0 of thread 0: read of a temp with no earlier definition in this thread: the partition is not closed",
		},
		{
			name:  "schedule/dead-store",
			check: CheckSchedule,
			warn:  true,
			plant: func(t *testing.T) *Report {
				p := mutProgram(t)
				_, usePC := soleReader(t, p, 0)
				var reg uint32
				for _, r := range p.Regs {
					if r.Width <= 64 {
						reg = r.Slot
						break
					}
				}
				p.Threads[0].Code[usePC].A = sim.MakeRef(sim.RefGlobal, reg)
				rep := Program(p, Options{})
				requireClean(t, rep, "retargeted sole reader")
				return rep
			},
			want: "warning [schedule] thread 0 pc 0 at state word 32 = temp 0 of thread 0: dead store: destination is never read by this thread",
		},
		{
			name:  "schedule/temp-redefined",
			check: CheckSchedule,
			warn:  true,
			plant: func(t *testing.T) *Report {
				p := mutProgram(t)
				first := firstLocalDef(t, p, 0)
				code := p.Threads[0].Code
				for pc := len(code) - 1; pc > first; pc-- {
					if code[pc].Op != sim.OpNop && code[pc].Op != sim.OpMemWr &&
						sim.RefTag(code[pc].Dst) == sim.RefLocal {
						code[pc].Dst = code[first].Dst
						return Program(p, Options{})
					}
				}
				t.Fatal("thread 0 has one plain temp def")
				return nil
			},
			want: "warning [schedule] thread 0 pc 8 at state word 32 = temp 0 of thread 0: temp redefined: single-assignment form expected from the compiler",
		},
		{
			name:  "translation/constant-pool",
			check: CheckTranslation,
			plant: func(t *testing.T) *Report {
				g := mustGraph(t, maskConstSrc)
				p, parts := compileParts(t, g, 1, 2)
				idx := -1
				for i, v := range p.Imms {
					if v == 4294967295 {
						idx = i
					}
				}
				if idx < 0 {
					t.Fatal("and-mask constant not in O2 imm pool")
				}
				p.Imms[idx] ^= 1
				return Program(p, Options{Graph: g, Parts: parts, Validate: true})
			},
			want: "error [translation] thread 0 pc 2 at output \"o\" (global word 8): O0 pc 3 (copy) vs linked pc 2 (and): optimized stream computes a different function than the O0 reference; probe witness (round 0 cycle 0): output \"o\" O0=32'hffffffff optimized=32'hfffffffe",
		},
		{
			name:  "batch/frame-overlap",
			check: CheckBatch,
			plant: func(t *testing.T) *Report {
				g := mustGraph(t, memMixSrc)
				p, _ := compileParts(t, g, 2, 0)
				p.Linked().Threads[0].TempOff = 0
				return Program(p, Options{})
			},
			want: "error [batch-layout] thread 0 at state word 0: thread frame begins at 0, inside the previous region ending at 25: lane columns of different regions overlap",
		},
		{
			name:  "exchange/dropped-entry",
			check: CheckExchange,
			plant: func(t *testing.T) *Report {
				p := mutProgram(t)
				w, r := exchangePair(t, p)
				x := p.Linked().Exchange
				x[w][r] = x[w][r][1:]
				return Program(p, Options{})
			},
			want: "error [exchange] thread 1 at global word 8 (reg \"a\", segment of thread 0): eval-phase read of thread 0's segment with no exchange entry: the reader evaluates with a stale copy",
		},
		{
			name:  "exchange/reader-own-segment",
			check: CheckExchange,
			plant: func(t *testing.T) *Report {
				p := mutProgram(t)
				w, r := exchangePair(t, p)
				p.Linked().Exchange[w][r][0] = uint32(p.Threads[r].GlobalOff)
				return Program(p, Options{})
			},
			want: "error [exchange] thread 1 at global word 16 (output \"out\", segment of thread 1): exchange entry 0 of writer 0 for reader 1 lies in the reader's own segment: its copy-in overwrites a word the reader's commit writes",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sev := Error
			if tc.warn {
				sev = Warning
			}
			got := findSeverity(t, tc.plant(t), tc.check, sev).String()
			if got != tc.want {
				t.Fatalf("diagnostic text changed:\n got: %s\nwant: %s", got, tc.want)
			}
		})
	}
}

// exchangePair returns the first writer and reader with exchange entries.
func exchangePair(t *testing.T, p *sim.Program) (w, r int) {
	t.Helper()
	for w, row := range p.Linked().Exchange {
		for r, words := range row {
			if len(words) > 0 {
				return w, r
			}
		}
	}
	t.Fatal("program exchanges no words")
	return -1, -1
}

// twoPortSrc has one memory of the given element width with two write
// ports and enough sinks to give each of two threads one port.
const twoPortSrc = `
circuit T {
  module T {
    input in : UInt<8>
    output out : UInt<%[1]d>
    reg n : UInt<8> init 0
    mem ram : UInt<%[1]d>[4]
    write(ram, bits(n, 1, 0), pad(in, %[1]d), UInt<1>(1))
    write(ram, bits(in, 1, 0), pad(n, %[1]d), bits(n, 0, 0))
    n <= tail(add(n, UInt<8>(1)), 1)
    out <= read(ram, bits(n, 1, 0))
  }
}
`

// sinkParts partitions g by hand: owner names the thread of every sink and
// each thread gets the cones of its sinks, in topological order.
func sinkParts(g *cgraph.Graph, k int, owner func(sink string) int) []sim.PartSpec {
	parts := make([]sim.PartSpec, k)
	in := make([][]bool, k)
	for t := range in {
		in[t] = make([]bool, g.NumVertices())
	}
	for _, s := range g.Sinks() {
		t := owner(g.Vs[s].Name)
		parts[t].Sinks = append(parts[t].Sinks, s)
		stack := []cgraph.VID{s}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if in[t][v] || g.Vs[v].Kind.IsSource() {
				continue
			}
			in[t][v] = true
			stack = append(stack, g.Preds[v]...)
		}
	}
	for t := range parts {
		for _, v := range g.Topo {
			if in[t][v] {
				parts[t].Vertices = append(parts[t].Vertices, v)
			}
		}
	}
	return parts
}

// TestGoldenCrossThreadMemWriters pins the one Warning whose wording is a
// statement about the engine's protocol: a memory with write ports in two
// threads verifies clean (the barrier's last arriver commits it serially)
// and the diagnostic says what order that commit uses. A 150-bit memory is
// three word columns and still one memory, so one warning.
func TestGoldenCrossThreadMemWriters(t *testing.T) {
	const want = `warning [race-freedom] at mem "ram": write ports owned by threads [0 1]: committed serially at the barrier, by cycle then thread order; same-cycle writes to one address resolve to the highest thread (address disjointness not statically provable)`
	for _, w := range []int{8, 150} {
		g := mustGraph(t, fmt.Sprintf(twoPortSrc, w))
		parts := sinkParts(g, 2, func(sink string) int {
			if sink == "ram$w1" || sink == "out" {
				return 1
			}
			return 0
		})
		p, err := sim.Compile(g, parts, sim.Config{OptLevel: 2})
		if err != nil {
			t.Fatal(err)
		}
		rep := Program(p, Options{Graph: g, Parts: parts})
		requireClean(t, rep, "two write ports, two threads")
		var got []string
		for _, d := range rep.Diags {
			if d.Check == CheckRace && d.Severity == Warning {
				got = append(got, d.String())
			}
		}
		if len(got) != 1 || got[0] != want {
			t.Fatalf("%d-bit memory: race warnings\n got: %q\nwant: [%q]", w, got, want)
		}
	}
}
