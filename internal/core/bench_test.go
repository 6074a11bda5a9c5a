package core

import (
	"testing"

	"minnow/internal/graph"
	"minnow/internal/mem"
	"minnow/internal/sim"
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

// BenchmarkLocalQueue measures one EnqueueFrom plus one DequeueFrom on a
// front-end's local queue with prefetching off, the Fig. 12 fast path
// every Minnow enqueue and dequeue takes while its priority stays local.
// The queue holds a standing backlog of LocalQ/2 tasks, so each dequeue
// returns the task enqueued LocalQ/2 iterations earlier; at the end the
// backlog drains and every task must have come back in order.
func BenchmarkLocalQueue(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Prefetch = false
	e, _ := testEngine(cfg)
	core := e.CoreID
	now := sim.Time(0)
	in, out := int32(0), int32(0)
	enqueue := func() {
		now = e.EnqueueFrom(core, task(0, in), now)
		in++
		if e.LocalLen() > cfg.LocalQ {
			b.Fatalf("local queue holds %d tasks, LocalQ is %d", e.LocalLen(), cfg.LocalQ)
		}
	}
	dequeue := func() {
		t, ready, ok := e.DequeueFrom(core, now)
		if !ok || t.Node != out {
			b.Fatalf("dequeue %d returned node %d (ok=%v)", out, t.Node, ok)
		}
		now = ready
		out++
	}
	for e.LocalLen() < cfg.LocalQ/2 {
		enqueue()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enqueue()
		dequeue()
	}
	b.StopTimer()
	for out < in {
		dequeue()
	}
	if e.LocalLen() != 0 || e.Stat.LocalEnq != int64(in) || e.Stat.LocalDeq != int64(in) {
		b.Fatalf("after %d tasks: %d still queued, %d local enqueues, %d local dequeues",
			in, e.LocalLen(), e.Stat.LocalEnq, e.Stat.LocalDeq)
	}
}
