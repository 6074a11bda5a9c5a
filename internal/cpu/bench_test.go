package cpu

import (
	"testing"

	"minnow/internal/rng"
	"minnow/internal/stats"
	"minnow/internal/uops"
)

// BenchmarkCoreRun measures Core.Run on one fixed mixed batch: compute
// groups, loads and stores over eight L1-resident lines, branches whose
// outcomes come from a seeded coin (half of them waiting on the last
// load), and one fencing atomic. It then checks that the core retired
// every micro-op and that the cycle categories account for exactly the
// clock's advance, so even a single-iteration run checks a result.
func BenchmarkCoreRun(b *testing.B) {
	r := rng.New(3)
	var tr uops.Trace
	for i := 0; i < 32; i++ {
		addr := uint64(0x100000 + (i%8)*64)
		tr.Compute(1 + r.Intn(6))
		tr.LoadPC(0x500, addr, false, i%4 == 3)
		tr.Branch(0x600+uint64(i%4)*4, r.Intn(3) != 0, i%2 == 0)
		tr.Store(addr + 8)
		if i == 16 {
			tr.Atomic(addr + 16)
		}
	}
	ops, instrs := tr.Ops, tr.Instrs()
	c := testCore(DefaultConfig())
	c.Run(ops, stats.CatUseful) // warm the lines into the L1
	start, startStat := c.Now(), c.Stat
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Run(ops, stats.CatUseful)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*int64(len(ops))), "ns/uop")
	if got, want := c.Stat.Instrs-startStat.Instrs, int64(b.N)*instrs; got != want {
		b.Fatalf("retired %d instructions, want %d", got, want)
	}
	var charged int64
	for cat := range c.Stat.Cycles {
		charged += c.Stat.Cycles[cat] - startStat.Cycles[cat]
	}
	if advance := int64(c.Now() - start); charged != advance {
		b.Fatalf("cycle categories sum to %d, clock advanced %d", charged, advance)
	}
}
