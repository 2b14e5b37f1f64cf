package codegen

import "repro/internal/sim"

// Schedule exposes the emitter's order of thread t to the external tests.
func Schedule(lp *sim.LinkedProgram, t int) []int { return schedule(lp, t) }
