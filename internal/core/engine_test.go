package core

import (
	"testing"
	"testing/quick"

	"minnow/internal/graph"
	"minnow/internal/mem"
	"minnow/internal/rng"
	"minnow/internal/sim"
	"minnow/internal/worklist"
)

func testEngine(cfg Config) (*Engine, *mem.System) {
	as := graph.NewAddrSpace()
	mcfg := mem.DefaultConfig(1)
	mcfg.ScaleCaches(16)
	msys := mem.NewSystem(mcfg)
	gwl := NewGlobalWL(as, 1, 1)
	e := NewEngine(0, cfg, msys, gwl)
	msys.OnCredit = func(c int, used bool) { e.CreditReturn(used) }
	return e, msys
}

func task(p int64, n int32) worklist.Task { return worklist.Task{Priority: p, Node: n, EdgeHi: -1} }

// drainEngine steps the engine until idle.
func drainEngine(e *Engine) {
	for i := 0; i < 1_000_000; i++ {
		if _, done := e.Step(); done {
			return
		}
	}
	panic("engine did not drain")
}

func TestLocalQueueFastPath(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Prefetch = false
	e, _ := testEngine(cfg)
	done := e.Enqueue(task(8, 1), 100)
	if done != 100+cfg.LocalQLatency {
		t.Fatalf("enqueue latency %d", done-100)
	}
	if e.LocalLen() != 1 || e.Stat.LocalEnq != 1 {
		t.Fatal("task not in local queue")
	}
	got, ready, ok := e.Dequeue(done)
	if !ok || got.Node != 1 {
		t.Fatalf("dequeue: %+v %v", got, ok)
	}
	if ready != done+cfg.LocalQLatency {
		t.Fatalf("dequeue latency %d", ready-done)
	}
}

func TestFig12EnqueueSemantics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Prefetch = false
	cfg.LgInterval = 3
	e, _ := testEngine(cfg)
	// First task sets the local bucket (priority 8 -> bucket 1).
	e.Enqueue(task(8, 1), 0)
	// Same bucket: local.
	e.Enqueue(task(15, 2), 10)
	// Higher-priority (lower bucket): also local, bucket updates.
	e.Enqueue(task(0, 3), 20)
	if e.Stat.LocalEnq != 3 {
		t.Fatalf("local enqueues %d, want 3", e.Stat.LocalEnq)
	}
	// Lower-priority (higher bucket) after bucket dropped to 0: spills.
	e.Enqueue(task(64, 4), 30)
	drainEngine(e)
	if e.Stat.Spills != 1 {
		t.Fatalf("spills %d, want 1", e.Stat.Spills)
	}
}

func TestLocalQueueOverflowSpills(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Prefetch = false
	cfg.LocalQ = 4
	e, _ := testEngine(cfg)
	for i := int32(0); i < 10; i++ {
		e.Enqueue(task(0, i), sim.Time(i*10))
	}
	if e.LocalLen() != 4 {
		t.Fatalf("local queue %d, want 4", e.LocalLen())
	}
	drainEngine(e)
	if e.Stat.Spills != 6 {
		t.Fatalf("spills %d, want 6", e.Stat.Spills)
	}
}

func TestDequeueTriggersFill(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Prefetch = false
	cfg.LocalQ = 4
	e, _ := testEngine(cfg)
	for i := int32(0); i < 10; i++ {
		e.Enqueue(task(0, i), sim.Time(i*10))
	}
	drainEngine(e) // spills 6 tasks to the global worklist
	seen := map[int32]bool{}
	now := sim.Time(1000)
	for len(seen) < 10 {
		tk, ready, ok := e.Dequeue(now)
		now = ready + 50
		if ok {
			if seen[tk.Node] {
				t.Fatalf("task %d dequeued twice", tk.Node)
			}
			seen[tk.Node] = true
			continue
		}
		// Engine must be requesting a fill; run it.
		drainEngine(e)
	}
	if e.Stat.Fills == 0 {
		t.Fatal("no fill threadlets ran")
	}
}

func TestFIFOWithinLocalQueue(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Prefetch = false
	e, _ := testEngine(cfg)
	for i := int32(0); i < 5; i++ {
		e.Enqueue(task(0, i), sim.Time(i))
	}
	for i := int32(0); i < 5; i++ {
		tk, _, ok := e.Dequeue(sim.Time(100 + i*20))
		if !ok || tk.Node != i {
			t.Fatalf("pop %d got %+v", i, tk)
		}
	}
}

func TestFlushEmptiesLocalQueue(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Prefetch = false
	e, _ := testEngine(cfg)
	for i := int32(0); i < 5; i++ {
		e.Enqueue(task(0, i), sim.Time(i))
	}
	e.Flush(100)
	if e.LocalLen() != 0 {
		t.Fatal("flush left tasks local")
	}
	if e.Stat.Spills != 5 {
		t.Fatalf("flush spilled %d", e.Stat.Spills)
	}
}

func TestGlobalWLPriorityOrder(t *testing.T) {
	as := graph.NewAddrSpace()
	mcfg := mem.DefaultConfig(1)
	mcfg.ScaleCaches(16)
	msys := mem.NewSystem(mcfg)
	gwl := NewGlobalWL(as, 1, 1)
	cfg := DefaultConfig()
	cfg.Prefetch = false
	cfg.LgInterval = 0
	e := NewEngine(0, cfg, msys, gwl)
	r := rng.New(9)
	for i := 0; i < 60; i++ {
		gwl.Spill(e, task(int64(r.Intn(30)), int32(i)), e.Clock())
	}
	if gwl.Len() != 60 {
		t.Fatalf("len %d", gwl.Len())
	}
	prevMax := int64(-1)
	for gwl.Len() > 0 {
		tasks, _ := gwl.Fill(e, 8, e.Clock())
		for _, tk := range tasks {
			b := tk.Priority
			if b < prevMax {
				t.Fatalf("fill returned bucket %d after %d", b, prevMax)
			}
		}
		for _, tk := range tasks {
			if tk.Priority > prevMax {
				prevMax = tk.Priority
			}
		}
	}
}

func TestCreditConservationProperty(t *testing.T) {
	// Property: credits + marked-lines-outstanding == Credits at every
	// quiescent point.
	if err := quick.Check(func(seed uint64) bool {
		cfg := DefaultConfig()
		cfg.Credits = 8
		g := graph.UniformRandom(200, 4, seed)
		as := graph.NewAddrSpace()
		g.Bind(as, false)
		cfg.Program = &StandardProgram{G: g}
		cfg.Prefetch = true
		e, msys := testEngine(cfg)
		r := rng.New(seed)
		now := sim.Time(0)
		for i := 0; i < 100; i++ {
			now += sim.Time(r.Intn(50))
			switch r.Intn(3) {
			case 0:
				e.Enqueue(task(int64(r.Intn(4)), int32(r.Intn(200))), now)
			case 1:
				e.Dequeue(now)
			case 2:
				e.Step()
			}
		}
		drainLimit := 0
		for {
			_, done := e.Step()
			if done || drainLimit > 100000 {
				break
			}
			drainLimit++
		}
		// Outstanding marked lines from the cache counters.
		l2 := msys.L2Counters()
		outstanding := l2.PrefetchFills - l2.PrefetchUsed - l2.PrefetchWaste
		return e.Credits()+int(outstanding) == cfg.Credits
	}, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestPrefetchStreamStandard(t *testing.T) {
	b := graph.NewBuilder(4, false)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	g := b.Build("pf")
	as := graph.NewAddrSpace()
	g.Bind(as, false)
	p := &StandardProgram{G: g}
	st := p.Start(worklist.Task{Node: 0, EdgeHi: -1, Desc: 0x9000})
	// Head threadlet: descriptor + source node.
	buf, ok := st.Next(nil)
	if !ok || len(buf) != 2 || buf[0] != 0x9000 || buf[1] != g.NodeAddr(0) {
		t.Fatalf("head threadlet %v %v", buf, ok)
	}
	// Edge threadlets: edge record then destination node.
	buf, ok = st.Next(nil)
	if !ok || buf[0] != g.EdgeAddr(0) || buf[1] != g.NodeAddr(1) {
		t.Fatalf("edge threadlet 0: %v", buf)
	}
	buf, ok = st.Next(nil)
	if !ok || buf[0] != g.EdgeAddr(1) || buf[1] != g.NodeAddr(2) {
		t.Fatalf("edge threadlet 1: %v", buf)
	}
	if _, ok = st.Next(nil); ok {
		t.Fatal("stream did not end")
	}
}

func TestPrefetchStreamHonorsSplitRange(t *testing.T) {
	b := graph.NewBuilder(2, false)
	for i := 0; i < 10; i++ {
		b.AddEdge(0, 1)
	}
	// Dedup keeps 1 edge; build a wider graph instead.
	b2 := graph.NewBuilder(12, false)
	for i := int32(1); i < 11; i++ {
		b2.AddEdge(0, i)
	}
	g := b2.Build("split")
	as := graph.NewAddrSpace()
	g.Bind(as, false)
	// The standard program, and TC's, which also covers each
	// destination's adjacency list.
	for _, p := range []*StandardProgram{{G: g}, {G: g, ListLines: 4}} {
		st := p.Start(worklist.Task{Node: 0, EdgeLo: 3, EdgeHi: 6})
		st.Next(nil) // head
		count := 0
		for {
			buf, ok := st.Next(nil)
			if !ok {
				break
			}
			if buf[0] < g.EdgeAddr(3) || buf[0] >= g.EdgeAddr(6) {
				t.Fatalf("ListLines %d: edge prefetch outside split range: %x", p.ListLines, buf[0])
			}
			count++
		}
		if count != 3 {
			t.Fatalf("ListLines %d: split stream covered %d edges, want 3", p.ListLines, count)
		}
	}
}

func TestTCProgramCoversSearchFootprint(t *testing.T) {
	g := graph.CommunityDBLP(100, 1)
	as := graph.NewAddrSpace()
	g.Bind(as, true)
	p := &StandardProgram{G: g, ListLines: 4}
	st := p.Start(worklist.Task{Node: 0, EdgeHi: -1})
	st.Next(nil) // head
	buf, ok := st.Next(nil)
	if !ok {
		t.Skip("node 0 has no edges")
	}
	// Edge + dest node + at least one adjacency-list line.
	if len(buf) < 3 {
		t.Fatalf("TC threadlet too small: %v", buf)
	}
}

func TestFuncProgram(t *testing.T) {
	p := &FuncProgram{F: func(tk worklist.Task, emit func(addrs ...uint64)) {
		emit(1, 2)
		emit(3)
	}}
	st := p.Start(worklist.Task{})
	b1, ok1 := st.Next(nil)
	b2, ok2 := st.Next(nil)
	_, ok3 := st.Next(nil)
	if !ok1 || !ok2 || ok3 {
		t.Fatal("threadlet count wrong")
	}
	if len(b1) != 2 || b1[0] != 1 || len(b2) != 1 || b2[0] != 3 {
		t.Fatalf("threadlets %v %v", b1, b2)
	}
}

func TestDeadlockFreedomTinyQueues(t *testing.T) {
	// Shrunken threadlet queue with prefetching and spills: must always
	// drain (§5.3.2 reservations).
	g := graph.UniformRandom(100, 4, 3)
	as := graph.NewAddrSpace()
	g.Bind(as, false)
	cfg := DefaultConfig()
	cfg.ThreadletQ = 8
	cfg.LocalQ = 4
	cfg.Credits = 2
	cfg.Prefetch = true
	cfg.Program = &StandardProgram{G: g}
	e, _ := testEngine(cfg)
	now := sim.Time(0)
	for i := int32(0); i < 50; i++ {
		now = e.Enqueue(task(int64(i%5), i%100), now+5)
	}
	deq := 0
	for guard := 0; deq < 50 && guard < 200000; guard++ {
		if _, ready, ok := e.Dequeue(now); ok {
			deq++
			now = ready + 10
		} else {
			e.Step()
			now += 5
		}
	}
	if deq != 50 {
		t.Fatalf("only %d of 50 tasks came back (deadlock?)", deq)
	}
}

func TestAreaUnderOnePercent(t *testing.T) {
	rep := Area(DefaultConfig(), 256*1024/64)
	if rep.OverheadPercent >= 1.0 {
		t.Fatalf("area overhead %.2f%%, paper claims <1%%", rep.OverheadPercent)
	}
	if rep.SRAMBytes < 8*1024 || rep.SRAMBytes > 16*1024 {
		t.Fatalf("SRAM budget %dB outside the ~10KB ballpark", rep.SRAMBytes)
	}
	if rep.Total14nm <= rep.ControlUnit14nm {
		t.Fatal("total must include SRAM")
	}
}

func TestLateStreamsAreDropped(t *testing.T) {
	g := graph.UniformRandom(100, 4, 3)
	as := graph.NewAddrSpace()
	g.Bind(as, false)
	cfg := DefaultConfig()
	cfg.Prefetch = true
	cfg.Program = &StandardProgram{G: g}
	e, _ := testEngine(cfg)
	// Enqueue and immediately dequeue without letting the engine run:
	// its streams are now stale and must be dropped, not executed.
	now := e.Enqueue(task(0, 5), 0)
	_, now, _ = e.Dequeue(now)
	drainEngine(e)
	if e.Stat.LateDrops == 0 {
		t.Fatal("stale stream was not dropped")
	}
	if e.Stat.Prefetches != 0 {
		t.Fatalf("late prefetches issued: %d", e.Stat.Prefetches)
	}
}

func TestSharedEngineServesTwoCores(t *testing.T) {
	as := graph.NewAddrSpace()
	mcfg := mem.DefaultConfig(2)
	mcfg.ScaleCaches(16)
	msys := mem.NewSystem(mcfg)
	gwl := NewGlobalWL(as, 2, 1)
	cfg := DefaultConfig()
	cfg.Prefetch = false
	e := NewSharedEngine([]int{0, 1}, cfg, msys, gwl)

	// Each core enqueues into its own front-end.
	e.EnqueueFrom(0, task(0, 10), 0)
	e.EnqueueFrom(1, task(0, 20), 5)
	t0, _, ok0 := e.DequeueFrom(0, 100)
	t1, _, ok1 := e.DequeueFrom(1, 100)
	if !ok0 || !ok1 || t0.Node != 10 || t1.Node != 20 {
		t.Fatalf("cross-core mixup: %v/%v %v/%v", t0, ok0, t1, ok1)
	}
	if got := len(e.Cores()); got != 2 {
		t.Fatalf("cores %d", got)
	}
}

func TestSharedEngineIsolatesBuckets(t *testing.T) {
	as := graph.NewAddrSpace()
	mcfg := mem.DefaultConfig(2)
	mcfg.ScaleCaches(16)
	msys := mem.NewSystem(mcfg)
	gwl := NewGlobalWL(as, 2, 1)
	cfg := DefaultConfig()
	cfg.Prefetch = false
	cfg.LgInterval = 0
	e := NewSharedEngine([]int{0, 1}, cfg, msys, gwl)
	// Core 0 holds bucket 1; core 1's bucket must be independent.
	e.EnqueueFrom(0, task(1, 1), 0)
	e.EnqueueFrom(1, task(9, 2), 0) // would spill if buckets were shared
	if e.Stat.LocalEnq != 2 {
		t.Fatalf("localEnq %d: front-end buckets not independent", e.Stat.LocalEnq)
	}
}

func TestGlobalWLShardSteal(t *testing.T) {
	// Two shards: an engine whose own shard is empty must steal from the
	// other.
	as := graph.NewAddrSpace()
	mcfg := mem.DefaultConfig(2)
	mcfg.ScaleCaches(16)
	msys := mem.NewSystem(mcfg)
	gwl := NewGlobalWL(as, 2, 2)
	cfg := DefaultConfig()
	cfg.Prefetch = false
	e0 := NewEngine(0, cfg, msys, gwl) // shard 0
	e1 := NewEngine(1, cfg, msys, gwl) // shard 1
	for i := int32(0); i < 8; i++ {
		gwl.Spill(e0, task(int64(i), i), e0.Clock())
	}
	// Fills are fair-share capped, so drain with repeated fills.
	total := 0
	for i := 0; i < 10 && gwl.Len() > 0; i++ {
		got, _ := gwl.Fill(e1, 8, e1.Clock())
		total += len(got)
	}
	if total != 8 || gwl.Len() != 0 {
		t.Fatalf("steal drained %d of 8 (len %d)", total, gwl.Len())
	}
}

func TestGlobalWLMinBucket(t *testing.T) {
	as := graph.NewAddrSpace()
	mcfg := mem.DefaultConfig(1)
	mcfg.ScaleCaches(16)
	msys := mem.NewSystem(mcfg)
	gwl := NewGlobalWL(as, 1, 1)
	cfg := DefaultConfig()
	cfg.Prefetch = false
	cfg.LgInterval = 0
	e := NewEngine(0, cfg, msys, gwl)
	if gwl.MinBucket() != noBucket {
		t.Fatal("empty worklist has a min bucket")
	}
	gwl.Spill(e, task(7, 1), 0)
	gwl.Spill(e, task(3, 2), 0)
	if gwl.MinBucket() != 3 {
		t.Fatalf("min bucket %d, want 3", gwl.MinBucket())
	}
	gwl.Fill(e, 1, e.Clock()) // removes the priority-3 task
	if gwl.MinBucket() != 7 {
		t.Fatalf("min bucket %d after fill, want 7", gwl.MinBucket())
	}
}

func TestFairShareFillCap(t *testing.T) {
	// With many engines and little work, one fill must not hoard the
	// whole tail.
	as := graph.NewAddrSpace()
	mcfg := mem.DefaultConfig(8)
	mcfg.ScaleCaches(16)
	msys := mem.NewSystem(mcfg)
	gwl := NewGlobalWL(as, 8, 1)
	cfg := DefaultConfig()
	cfg.Prefetch = false
	e := NewEngine(0, cfg, msys, gwl)
	for i := int32(0); i < 16; i++ {
		gwl.Spill(e, task(0, i), e.Clock())
	}
	got, _ := gwl.Fill(e, 48, e.Clock())
	// fair share = 16/8 + 1 = 3
	if len(got) > 3 {
		t.Fatalf("fill hoarded %d tasks of 16 across 8 cores", len(got))
	}
}

// TestQueueTrafficAllocs pins that steady-state task traffic allocates
// nothing: Fig. 12 fast-path enqueue/dequeue pairs on a local queue
// holding a standing backlog, and spill/fill round trips through the
// global worklist, once their queues have grown to the working set.
func TestQueueTrafficAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Prefetch = false
	t.Run("local-queue", func(t *testing.T) {
		e, _ := testEngine(cfg)
		now := sim.Time(0)
		in, out := int32(0), int32(0)
		pair := func() {
			now = e.EnqueueFrom(e.CoreID, task(0, in), now)
			in++
			got, ready, ok := e.DequeueFrom(e.CoreID, now)
			if !ok || got.Node != out {
				t.Fatalf("dequeue %d returned node %d (ok=%v)", out, got.Node, ok)
			}
			now = ready
			out++
		}
		for e.LocalLen() < cfg.LocalQ/2 {
			now = e.EnqueueFrom(e.CoreID, task(0, in), now)
			in++
		}
		for i := 0; i < 4*cfg.LocalQ; i++ {
			pair()
		}
		if allocs := testing.AllocsPerRun(1000, pair); allocs != 0 {
			t.Fatalf("enqueue+dequeue allocates %.2f times per pair at a standing backlog", allocs)
		}
	})
	t.Run("spill-fill", func(t *testing.T) {
		e, _ := testEngine(cfg)
		gwl := e.gwl
		i := int32(0)
		trip := func() {
			gwl.Spill(e, task(int64(i%8), i), e.Clock())
			if got, _ := gwl.Fill(e, 1, e.Clock()); len(got) != 1 {
				t.Fatalf("fill returned %d tasks, want 1", len(got))
			}
			i++
		}
		for n := 0; n < 64; n++ {
			trip()
		}
		if allocs := testing.AllocsPerRun(1000, trip); allocs != 0 {
			t.Fatalf("spill+fill allocates %.2f times per round trip", allocs)
		}
	})
}
