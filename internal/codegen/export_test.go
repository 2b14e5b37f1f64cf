package codegen

import "repro/internal/sim"

// Schedule exposes the emitter's order of thread t to the external tests.
func Schedule(p *sim.Program, t int) []int { return schedule(p, t) }
