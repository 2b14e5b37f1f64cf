package sim

import (
	"runtime"
	"sync/atomic"
)

// spinLoads is how many times a waiter polls the arrival word before it
// first yields to the scheduler. BenchmarkBarrier is the source of the
// number. On the 2-core reference host a balanced 2-participant crossing
// costs 150–330 ns with a 64-poll budget, because the waiter is often
// inside Gosched when the release lands, and 105–125 ns from 512 polls
// up; when one participant is a microsecond late the budget makes no
// difference (the yields hide behind the lag). 4096 polls take 1.7 µs
// there: enough to cover the arrival jitter of two balanced partitions
// with margin, and, spent in full because a partner was descheduled, less
// than one simulated cycle of the smallest bundled design.
const spinLoads = 4096

// yieldLoads is the poll count between yields once the spin budget is
// spent, and the whole budget when the host cannot run every participant
// at once (spinning then only delays the goroutine being waited for).
const yieldLoads = 64

// Barrier is a centralized counting barrier: one word counts arrivals, and
// the arrival that completes a crossing is also what releases it, so a
// crossing costs each participant one atomic add. Waiters spin for a
// bounded budget and then yield to the scheduler, so the barrier stays
// live even when GOMAXPROCS is smaller than the participant count (pure
// spinning would livelock a single-core host).
type Barrier struct {
	n    uint32
	spin int

	_ [6]uint64 // the hot word gets a cache line to itself
	// arrived counts arrivals over the barrier's whole life, compared
	// modulo 2^32.
	arrived atomic.Uint32
	_       [15]uint32
}

// NewBarrier creates a barrier for n participants.
func NewBarrier(n int) *Barrier {
	b := &Barrier{n: uint32(n), spin: spinLoads}
	if runtime.GOMAXPROCS(0) < n {
		b.spin = yieldLoads
	}
	return b
}

// Wait blocks the caller until all n participants have arrived. Each
// participant must pass its own crossing counter, initialized to zero.
func (b *Barrier) Wait(crossing *uint32) {
	*crossing++
	budget := b.spin
	if *crossing == 1 {
		// The others may not have been scheduled yet, and may need this P.
		budget = yieldLoads
	}
	done := *crossing * b.n
	if b.arrived.Add(1) == done {
		return
	}
	// Poll until the arrival word reaches done, yielding after budget polls
	// and then after every yieldLoads more.
	for ; int32(b.arrived.Load()-done) < 0; budget-- {
		if budget <= 0 {
			runtime.Gosched()
			budget = yieldLoads
		}
	}
}
