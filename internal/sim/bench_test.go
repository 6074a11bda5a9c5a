package sim

import (
	"strconv"
	"testing"
)

// strideActor advances its clock by a pseudo-random stride on every
// step, so the heap root changes on most steps and every step sifts.
type strideActor struct {
	at    Time
	state uint64
}

func (a *strideActor) Step() (Time, bool) {
	a.state = a.state*6364136223846793005 + 1442695040888963407
	a.at += 1 + Time(a.state>>59) // 1..32 cycles
	return a.at, false
}

// BenchmarkEngineRun measures one Run step (pop the earliest actor, step
// it, sift it back) with many actors queued. ns/op is per step.
func BenchmarkEngineRun(b *testing.B) {
	for _, n := range []int{16, 256} {
		b.Run(strconv.Itoa(n)+"actors", func(b *testing.B) {
			e := NewEngine()
			for i := 0; i < n; i++ {
				e.Wake(e.Register(&strideActor{state: uint64(i)}), 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			if _, drained := e.Run(int64(b.N)); drained {
				b.Fatal("run drained; actors never finish")
			}
			b.StopTimer()
			if e.Steps() != int64(b.N) {
				b.Fatalf("ran %d steps, want %d", e.Steps(), b.N)
			}
		})
	}
}
