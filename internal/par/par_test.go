package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// setProcs sets GOMAXPROCS, which sizes every Pool, until the next call or
// the end of t, when the value t started with comes back.
func setProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		setProcs(t, w)
		p := NewPool()
		const n = 1000
		hits := make([]int32, n)
		p.ForEach(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("GOMAXPROCS=%d index %d ran %d times", w, i, h)
			}
		}
	}
}

func TestForEachErrReturnsLowestIndex(t *testing.T) {
	setProcs(t, 8)
	p := NewPool()
	e3 := errors.New("e3")
	e7 := errors.New("e7")
	err := p.ForEachErr(10, func(i int) error {
		switch i {
		case 3:
			return e3
		case 7:
			return e7
		}
		return nil
	})
	if err != e3 {
		t.Fatalf("got %v, want lowest-index error e3", err)
	}
	if err := p.ForEachErr(4, func(int) error { return nil }); err != nil {
		t.Fatalf("unexpected error %v", err)
	}
}

func TestChunksPartitionRange(t *testing.T) {
	for _, w := range []int{1, 3, 16} {
		setProcs(t, w)
		p := NewPool()
		const n = 103
		hits := make([]int32, n)
		p.Chunks(n, func(lo, hi int) {
			if lo >= hi {
				t.Errorf("empty chunk [%d,%d)", lo, hi)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("GOMAXPROCS=%d index %d covered %d times", w, i, h)
			}
		}
	}
}

func TestDoRunsBoth(t *testing.T) {
	for _, w := range []int{1, 4} {
		setProcs(t, w)
		p := NewPool()
		var a, b atomic.Bool
		p.Do(func() { a.Store(true) }, func() { b.Store(true) })
		if !a.Load() || !b.Load() {
			t.Fatalf("GOMAXPROCS=%d: Do skipped a branch", w)
		}
	}
}

// Nested fan-out must not deadlock even when the goroutine budget is
// exhausted (tasks fall back to inline execution).
func TestNestedForEachNoDeadlock(t *testing.T) {
	setProcs(t, 4)
	p := NewPool()
	var total atomic.Int64
	p.ForEach(8, func(int) {
		p.ForEach(8, func(int) {
			p.Do(func() { total.Add(1) }, func() { total.Add(1) })
		})
	})
	if total.Load() != 8*8*2 {
		t.Fatalf("total = %d", total.Load())
	}
}

func TestDeriveDeterministicAndSpread(t *testing.T) {
	if Derive(1, 2, 3) != Derive(1, 2, 3) {
		t.Fatal("Derive is not deterministic")
	}
	seen := map[int64]string{}
	for base := int64(0); base < 8; base++ {
		for br := int64(0); br < 64; br++ {
			s := Derive(base, br)
			key := fmt.Sprintf("base=%d branch=%d", base, br)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision between %s and %s", prev, key)
			}
			seen[s] = key
		}
	}
	if Derive(5, 1) == Derive(5, 2) {
		t.Fatal("sibling branches share a seed")
	}
	if Derive(5) == Derive(6) {
		t.Fatal("distinct bases share a seed")
	}
}

func TestSemAdmission(t *testing.T) {
	s := NewSem(2)
	if s.Cap() != 2 {
		t.Fatalf("Cap = %d, want 2", s.Cap())
	}
	if !s.TryAcquire() || !s.TryAcquire() {
		t.Fatal("could not fill an empty semaphore")
	}
	if s.TryAcquire() {
		t.Fatal("acquired beyond capacity")
	}
	if s.Held() != 2 {
		t.Fatalf("Held = %d, want 2", s.Held())
	}
	s.Release()
	if !s.TryAcquire() {
		t.Fatal("could not re-acquire a released slot")
	}
	s.Release()
	s.Release()
	if s.Held() != 0 {
		t.Fatalf("Held = %d, want 0", s.Held())
	}
}

func TestSemReleaseWithoutAcquirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unbalanced Release did not panic")
		}
	}()
	NewSem(1).Release()
}

func TestSemMinimumCapacity(t *testing.T) {
	if got := NewSem(0).Cap(); got != 1 {
		t.Fatalf("NewSem(0).Cap() = %d, want 1", got)
	}
	if got := NewSem(-5).Cap(); got != 1 {
		t.Fatalf("NewSem(-5).Cap() = %d, want 1", got)
	}
}
