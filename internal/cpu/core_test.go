package cpu

import (
	"testing"

	"minnow/internal/mem"
	"minnow/internal/prof"
	"minnow/internal/sim"
	"minnow/internal/stats"
	"minnow/internal/uops"
)

func testCore(cfg Config) *Core {
	mcfg := mem.DefaultConfig(1)
	mcfg.ScaleCaches(16)
	return New(0, cfg, mem.NewSystem(mcfg))
}

func TestComputeThroughput(t *testing.T) {
	c := testCore(DefaultConfig())
	var tr uops.Trace
	tr.Compute(400)
	c.Run(tr.Ops)
	// 400 ops at 4-wide issue = 100 cycles (+1 completion slack).
	if c.Now() < 100 || c.Now() > 105 {
		t.Fatalf("400 compute ops took %d cycles", c.Now())
	}
	if c.Stat.Instrs != 400 {
		t.Fatalf("instrs %d", c.Stat.Instrs)
	}
}

func TestIndependentLoadsOverlap(t *testing.T) {
	// Two cold loads to different lines should overlap (MLP), not
	// serialize.
	one := testCore(DefaultConfig())
	var tr uops.Trace
	tr.Load(0x100000, true, false)
	one.Run(tr.Ops)
	single := one.Now()

	two := testCore(DefaultConfig())
	tr.Reset()
	tr.Load(0x100000, true, false)
	tr.Load(0x200000, true, false)
	two.Run(tr.Ops)
	double := two.Now()

	if double > single+single/2 {
		t.Fatalf("two independent loads (%d) nearly serialized vs one (%d)", double, single)
	}
}

func TestDependentLoadSerializes(t *testing.T) {
	indep := testCore(DefaultConfig())
	var tr uops.Trace
	tr.Load(0x100000, true, false)
	tr.Load(0x200000, true, false)
	indep.Run(tr.Ops)

	dep := testCore(DefaultConfig())
	tr.Reset()
	tr.Load(0x100000, true, false)
	tr.Load(0x200000, true, true) // address depends on the first load
	dep.Run(tr.Ops)

	if dep.Now() <= indep.Now() {
		t.Fatalf("dependent chain (%d) not slower than independent (%d)", dep.Now(), indep.Now())
	}
}

func TestAtomicFenceSerializes(t *testing.T) {
	run := func(noFences bool) sim.Time {
		cfg := DefaultConfig()
		cfg.NoFences = noFences
		c := testCore(cfg)
		var tr uops.Trace
		for i := 0; i < 8; i++ {
			tr.Load(uint64(0x100000+i*0x10000), true, false)
			tr.Atomic(uint64(0x800000 + i*0x10000))
		}
		c.Run(tr.Ops)
		return c.Now()
	}
	fenced, free := run(false), run(true)
	if free >= fenced {
		t.Fatalf("NoFences (%d) not faster than fenced (%d)", free, fenced)
	}
	// The paper's PR observation: fences serialize heavily.
	if float64(fenced)/float64(free) < 1.5 {
		t.Fatalf("fence penalty only %.2fx", float64(fenced)/float64(free))
	}
}

func TestMispredictStalls(t *testing.T) {
	run := func(perfect bool) sim.Time {
		cfg := DefaultConfig()
		cfg.PerfectBP = perfect
		c := testCore(cfg)
		var tr uops.Trace
		// Unpredictable branch pattern fed twice (xorshift-ish bits).
		x := uint64(0x9e3779b97f4a7c15)
		for i := 0; i < 500; i++ {
			x ^= x << 13
			x ^= x >> 7
			tr.Compute(4)
			tr.Branch(0x40, x&1 == 0, false)
		}
		c.Run(tr.Ops)
		return c.Now()
	}
	real, ideal := run(false), run(true)
	if ideal >= real {
		t.Fatalf("perfect BP (%d) not faster than realistic (%d)", ideal, real)
	}
}

func TestBranchDependsOnLoad(t *testing.T) {
	// A mispredicting branch that waits on a cold load stalls much
	// longer than one that does not (§3.3).
	run := func(dep bool) sim.Time {
		c := testCore(DefaultConfig())
		var tr uops.Trace
		x := uint64(12345)
		for i := 0; i < 50; i++ {
			x ^= x << 13
			x ^= x >> 7
			tr.Load(uint64(0x100000+i*0x4000), true, false)
			tr.Branch(0x44, x&1 == 0, dep)
		}
		c.Run(tr.Ops)
		return c.Now()
	}
	if run(true) <= run(false) {
		t.Fatal("load-dependent branches not slower")
	}
}

func TestLoadQueueBoundsMLP(t *testing.T) {
	// With a 2-entry LQ, 16 cold loads must serialize in pairs; with 64
	// entries they all overlap.
	run := func(lq int) sim.Time {
		cfg := DefaultConfig()
		cfg.LoadQueue = lq
		c := testCore(cfg)
		var tr uops.Trace
		for i := 0; i < 16; i++ {
			tr.Load(uint64(0x100000+i*0x10000), true, false)
		}
		c.Run(tr.Ops)
		return c.Now()
	}
	small, big := run(2), run(64)
	if big >= small {
		t.Fatalf("large LQ (%d) not faster than tiny LQ (%d)", big, small)
	}
}

func TestROBWindowBounds(t *testing.T) {
	// A tiny ROB forces near-serial retirement of long-latency loads.
	run := func(rob int) sim.Time {
		cfg := ScaledROB(rob)
		c := testCore(cfg)
		var tr uops.Trace
		for i := 0; i < 32; i++ {
			tr.Compute(8)
			tr.Load(uint64(0x100000+i*0x10000), true, false)
		}
		c.Run(tr.Ops)
		return c.Now()
	}
	if run(256) >= run(16) {
		t.Fatal("bigger ROB not faster under load-heavy window pressure")
	}
}

func TestCycleAccountingCoversWallTime(t *testing.T) {
	c := testCore(DefaultConfig())
	var tr uops.Trace
	for i := 0; i < 100; i++ {
		tr.Compute(10)
		tr.Load(uint64(0x100000+i*0x8000), true, false)
		tr.Store(uint64(0x900000 + i*0x8000))
	}
	c.Run(tr.Ops)
	var acc int64
	for _, v := range c.Stat.Cycles {
		acc += v
	}
	wall := int64(c.Now())
	if acc < wall*9/10 || acc > wall*11/10 {
		t.Fatalf("accounted %d cycles vs wall %d", acc, wall)
	}
}

func TestAdvanceChargesCategory(t *testing.T) {
	c := testCore(DefaultConfig())
	c.AdvanceIn(prof.RegionIdle, 500)
	if c.Stat.Cycles[stats.CatWorklist] != 500 {
		t.Fatalf("advance charged %d", c.Stat.Cycles[stats.CatWorklist])
	}
	c.AdvanceIn(prof.RegionIdle, 100) // backwards: no-op
	if c.Now() != 500 {
		t.Fatalf("clock moved backwards to %d", c.Now())
	}
}

func TestDelinquentCounting(t *testing.T) {
	c := testCore(DefaultConfig())
	var tr uops.Trace
	tr.Load(0x100000, true, false)
	tr.Load(0x100040, false, false)
	tr.Load(0x100080, false, false)
	c.Run(tr.Ops)
	if c.Stat.Loads != 3 || c.Stat.Delinquent != 1 {
		t.Fatalf("loads %d delinquent %d", c.Stat.Loads, c.Stat.Delinquent)
	}
}
