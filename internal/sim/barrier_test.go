package sim

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"
)

var barrierSink uint64

// The arrival word every participant adds to and polls must sit alone on
// its cache line: at a line boundary inside a whole number of lines (the
// allocator places a 128-byte object at a 128-byte boundary).
func TestBarrierLayout(t *testing.T) {
	const line = 64
	if off := unsafe.Offsetof(Barrier{}.arrived); off%line != 0 {
		t.Fatalf("Barrier.arrived at offset %d, not on a %d-byte line boundary; adjust the pad", off, line)
	}
	if sz := unsafe.Sizeof(Barrier{}); sz%line != 0 {
		t.Fatalf("Barrier is %d bytes, not a multiple of the %d-byte cache line; adjust the pad", sz, line)
	}
}

// benchBarrier times b.N crossings of n participants. Participant 0 runs
// lag dependent multiplies (about 1.4 ns each on the reference host) before
// every arrival, so the others wait about that long; spin overrides the
// barrier's poll budget when positive.
func benchBarrier(b *testing.B, n, lag, spin int) {
	bar := NewBarrier(n)
	if spin > 0 {
		bar.spin = spin
	}
	var wg sync.WaitGroup
	b.ResetTimer()
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			var crossing uint32
			x := uint64(p)
			for i := 0; i < b.N; i++ {
				if p == 0 {
					for j := 0; j < lag; j++ {
						x = x*6364136223846793005 + 1442695040888963407
					}
				}
				bar.Wait(&crossing)
			}
			if p == 0 {
				barrierSink = x
			}
		}(p)
	}
	wg.Wait()
}

// BenchmarkBarrier reports ns per crossing. The participants= rows are the
// barrier as the engine uses it, everyone arriving back to back. The other
// rows are the source of the spinLoads constant, at 2 participants: spin=
// varies the poll budget with balanced arrivals, where a budget that ends
// before the partner's add lands pays a scheduler round trip on top of the
// release latency; lag= makes one participant about 1.4 µs late — a
// partition that evaluates that much longer — where the early arriver's
// yields are hidden behind the lag and no budget is better than another.
func BenchmarkBarrier(b *testing.B) {
	for _, n := range []int{2, 4} {
		b.Run(fmt.Sprintf("participants=%d", n), func(b *testing.B) { benchBarrier(b, n, 0, 0) })
	}
	for _, spin := range []int{64, 512, 4096, 32768} {
		b.Run(fmt.Sprintf("spin=%d", spin), func(b *testing.B) { benchBarrier(b, 2, 0, spin) })
	}
	for _, spin := range []int{64, 4096} {
		b.Run(fmt.Sprintf("lag=1000/spin=%d", spin), func(b *testing.B) { benchBarrier(b, 2, 1000, spin) })
	}
}
