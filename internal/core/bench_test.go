package core

import (
	"testing"

	"minnow/internal/graph"
	"minnow/internal/mem"
)

// BenchmarkGlobalWLSpillFill measures one spill, one MinBucket read (the
// engine's refill heuristic) and one fill against a single-shard global
// worklist, simulated memory accesses included. Each fill drains the
// lowest bucket. "fresh" starts from an empty shard; "drained" first
// spills 4096 tasks to 4096 distinct buckets and fills them all, so the
// shard once held thousands of buckets and holds none when timing starts.
func BenchmarkGlobalWLSpillFill(b *testing.B) {
	for _, c := range []struct {
		name    string
		history int
	}{{"fresh", 0}, {"drained", 4096}} {
		b.Run(c.name, func(b *testing.B) {
			as := graph.NewAddrSpace()
			mcfg := mem.DefaultConfig(1)
			mcfg.ScaleCaches(16)
			msys := mem.NewSystem(mcfg)
			gwl := NewGlobalWL(as, 1, 1)
			cfg := DefaultConfig()
			cfg.Prefetch = false
			cfg.LgInterval = 0
			e := NewEngine(0, cfg, msys, gwl)
			for i := 0; i < c.history; i++ {
				gwl.Spill(e, task(int64(i), int32(i)), e.Clock())
			}
			for gwl.Len() > 0 {
				gwl.Fill(e, 64, e.Clock())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gwl.Spill(e, task(int64(c.history+i%8), int32(i)), e.Clock())
				if gwl.MinBucket() == noBucket {
					b.Fatal("spilled task not visible")
				}
				if got, _ := gwl.Fill(e, 1, e.Clock()); len(got) != 1 {
					b.Fatalf("fill returned %d tasks, want 1", len(got))
				}
			}
		})
	}
}
