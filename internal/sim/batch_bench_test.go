package sim

import (
	"fmt"
	"testing"
)

// BenchmarkBatchEval is the lane-batching speedup claim: one BatchEngine
// with N lanes vs N independent Engines on a bundled design. The reported
// lane-cycles/s metric is aggregate throughput (simulated cycles summed
// across lanes per wall second), so solo/N vs batch/N at equal N is the
// amortization factor of fetching and dispatching each linked instruction
// once instead of N times.
func BenchmarkBatchEval(b *testing.B) {
	prog := benchProgram(b)
	for _, lanes := range []int{1, 4, BatchWidth} {
		b.Run(fmt.Sprintf("batch/%d", lanes), func(b *testing.B) {
			be, err := NewBatchEngine(prog, lanes)
			if err != nil {
				b.Fatal(err)
			}
			for _, in := range prog.Inputs {
				if in.Width > 64 {
					continue
				}
				for l := 0; l < lanes; l++ {
					if err := be.Poke(l, in.Name, 0xa5a5a5a5a5a5a5a5); err != nil {
						b.Fatal(err)
					}
				}
			}
			be.Run(2) // steady state
			b.ReportAllocs()
			b.ResetTimer()
			be.Run(b.N)
			b.StopTimer()
			lc := float64(b.N) * float64(lanes)
			b.ReportMetric(lc/b.Elapsed().Seconds(), "lane-cycles/s")
		})
		b.Run(fmt.Sprintf("solo/%d", lanes), func(b *testing.B) {
			engines := make([]*Engine, lanes)
			for i := range engines {
				engines[i] = NewEngine(prog)
				for _, in := range prog.Inputs {
					if in.Width <= 64 {
						if err := engines[i].PokeInput(in.Name, 0xa5a5a5a5a5a5a5a5); err != nil {
							b.Fatal(err)
						}
					}
				}
				engines[i].Run(2)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for _, e := range engines {
				e.Run(b.N)
			}
			b.StopTimer()
			lc := float64(b.N) * float64(lanes)
			b.ReportMetric(lc/b.Elapsed().Seconds(), "lane-cycles/s")
		})
	}
}
