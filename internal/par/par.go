// Package par provides the bounded worker-pool primitives used to
// parallelize the partition+compile pipeline (cone traversal, the
// hypergraph partitioner's initial bisections and recursive branches, and
// per-thread code emission).
//
// Everything here is designed so callers stay *bit-identical for every
// GOMAXPROCS*: work items are addressed by index (each task writes only its
// own output slot), recursive branches receive independently derived RNG
// seed streams (Derive), and merges happen in index order on the caller's
// side.
// A Pool with one worker runs every task inline on the calling goroutine,
// so the serial path and the parallel path execute exactly the same code.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a bounded parallelism budget. The zero value is not usable; use
// NewPool. Pools are cheap (one channel) and safe for concurrent use;
// nested calls (e.g. ForEach inside Do) simply run inline once the
// goroutine budget is spent, so recursion can never explode.
type Pool struct {
	// tokens holds the budget of *extra* goroutines the pool may start
	// beyond the calling one: its capacity is the worker count minus one.
	tokens chan struct{}
}

// NewPool creates a pool of runtime.GOMAXPROCS workers, one of them the
// calling goroutine, so GOMAXPROCS=1 runs every task inline.
func NewPool() *Pool {
	return &Pool{tokens: make(chan struct{}, runtime.GOMAXPROCS(0)-1)}
}

// ForEach runs fn(i) for every i in [0, n), using up to the pool's worker
// count of goroutines (including the caller). It returns when all calls
// complete. fn must confine its writes to data owned by index i; under that
// contract results are independent of scheduling and worker count.
func (p *Pool) ForEach(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	extra := p.spawnBudget(n)
	if extra == 0 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < extra; g++ {
		wg.Add(1)
		go func() {
			defer func() { <-p.tokens; wg.Done() }()
			work()
		}()
	}
	work()
	wg.Wait()
}

// ForEachErr is ForEach for fallible tasks. Every index runs regardless of
// other indices' failures; the error of the lowest failing index is
// returned, which keeps error reporting deterministic under any schedule.
func (p *Pool) ForEachErr(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	p.ForEach(n, func(i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Chunks splits [0, n) into up to the pool's worker count of contiguous
// ranges and runs fn(lo, hi) for each, possibly concurrently. Use it when
// tasks want per-worker scratch state amortized over many indices.
func (p *Pool) Chunks(n int, fn func(lo, hi int)) {
	chunks := min(cap(p.tokens)+1, n)
	p.ForEach(chunks, func(c int) {
		lo := c * n / chunks
		hi := (c + 1) * n / chunks
		fn(lo, hi)
	})
}

// Do runs a and b, concurrently when the pool has budget for an extra
// goroutine and inline otherwise. It is the fork point for parallel
// recursion (e.g. the two branches of a recursive bisection).
func (p *Pool) Do(a, b func()) {
	select {
	case p.tokens <- struct{}{}:
		done := make(chan struct{})
		go func() {
			defer func() { <-p.tokens; close(done) }()
			a()
		}()
		b()
		<-done
	default:
		a()
		b()
	}
}

// spawnBudget acquires up to min(workers-1, n-1) goroutine tokens and
// returns how many it got. ForEach releases them as its goroutines exit.
func (p *Pool) spawnBudget(n int) int {
	want := min(cap(p.tokens), n-1)
	got := 0
	for ; got < want; got++ {
		select {
		case p.tokens <- struct{}{}:
		default:
			return got
		}
	}
	return got
}

// Sem is a hard-bounded counting semaphore for admission control: unlike
// Pool (which degrades to inline execution when its budget is spent), a
// Sem rejects work outright so callers can shed load instead of queueing
// it unboundedly — the 429/503 half of the serving story.
type Sem struct {
	slots chan struct{}
}

// NewSem creates a semaphore admitting at most n concurrent holders
// (n < 1 is treated as 1).
func NewSem(n int) *Sem {
	if n < 1 {
		n = 1
	}
	return &Sem{slots: make(chan struct{}, n)}
}

// Cap returns the semaphore's capacity.
func (s *Sem) Cap() int { return cap(s.slots) }

// Held returns the number of currently held slots (a racy snapshot, for
// metrics only).
func (s *Sem) Held() int { return len(s.slots) }

// TryAcquire takes a slot if one is free and reports whether it did.
// Callers that get false must not call Release.
func (s *Sem) TryAcquire() bool {
	select {
	case s.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release frees a slot taken by a successful TryAcquire.
func (s *Sem) Release() {
	select {
	case <-s.slots:
	default:
		panic("par: Sem.Release without matching TryAcquire")
	}
}

// Derive maps a base seed and a branch label to a new, statistically
// independent seed via two rounds of SplitMix64 finalization. Deriving the
// per-branch / per-task seeds up front — instead of sharing one sequential
// RNG — is what keeps randomized stages bit-identical no matter how many
// workers execute them, or in what order.
func Derive(base int64, branch ...int64) int64 {
	x := uint64(base) ^ 0x9e3779b97f4a7c15
	for _, b := range branch {
		x = mix64(x + 0x9e3779b97f4a7c15 + uint64(b)*0xbf58476d1ce4e5b9)
	}
	return int64(mix64(x))
}

// mix64 is the SplitMix64 finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
