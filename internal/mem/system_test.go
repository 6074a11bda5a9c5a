package mem

import (
	"testing"

	"minnow/internal/sim"
)

func testSystem(cores int) *System {
	cfg := DefaultConfig(cores)
	cfg.ScaleCaches(16)
	return NewSystem(cfg)
}

func TestLatencyHierarchy(t *testing.T) {
	s := testSystem(2)
	const addr = 0x100000
	// Cold: goes to DRAM.
	r1 := s.Access(0, addr, Load, 0)
	if r1.Level != 4 {
		t.Fatalf("cold access level %d", r1.Level)
	}
	// Second access from the same core: L1 hit, far cheaper.
	r2 := s.Access(0, addr, Load, r1.Done)
	if r2.Level != 1 {
		t.Fatalf("warm access level %d", r2.Level)
	}
	l1Cost := r2.Done - r1.Done
	coldCost := r1.Done - 0
	if l1Cost >= coldCost/4 {
		t.Fatalf("L1 hit (%d) not much cheaper than DRAM (%d)", l1Cost, coldCost)
	}
	// Another core: misses privately but hits the shared L3.
	r3 := s.Access(1, addr, Load, r2.Done)
	if r3.Level != 3 {
		t.Fatalf("remote access level %d", r3.Level)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	s := testSystem(2)
	const addr = 0x200000
	s.Access(0, addr, Load, 0)
	s.Access(1, addr, Load, 1000)
	// Core 1 writes: core 0's copies must go away.
	s.Access(1, addr, Store, 2000)
	if s.InvMsgs == 0 {
		t.Fatal("no invalidation issued")
	}
	r := s.Access(0, addr, Load, 3000)
	if r.Level < 3 {
		t.Fatalf("core 0 still hit privately at level %d after invalidation", r.Level)
	}
}

func TestDirtyRemoteRead(t *testing.T) {
	s := testSystem(2)
	const addr = 0x300000
	s.Access(0, addr, Store, 0)
	r := s.Access(1, addr, Load, 1000)
	if r.Level < 3 {
		t.Fatalf("dirty-remote read level %d", r.Level)
	}
	// Dirty data must have been pulled from the owner, not stale DRAM:
	// subsequent read by core 1 hits locally.
	r2 := s.Access(1, addr, Load, r.Done)
	if r2.Level != 1 {
		t.Fatalf("second read level %d", r2.Level)
	}
}

func TestPrefetchCreditCallbacks(t *testing.T) {
	s := testSystem(1)
	var used, wasted int
	s.OnCredit = func(core int, u bool) {
		if u {
			used++
		} else {
			wasted++
		}
	}
	const addr = 0x400000
	r := s.Access(0, addr, EnginePrefetch, 0)
	if !r.Marked {
		t.Fatal("prefetch did not mark")
	}
	// Demand load consumes the credit.
	r2 := s.Access(0, addr, Load, r.Done)
	if !r2.UsedPrefetch || used != 1 {
		t.Fatalf("credit not returned as used (used=%d)", used)
	}
	// Re-prefetch, then force eviction through same-set fills.
	s.Access(0, addr, EnginePrefetch, 5000)
	cfg := s.Config()
	setStride := uint64(cfg.L2Lines/cfg.L2Assoc) * LineSize
	for i := 1; i <= cfg.L2Assoc+1; i++ {
		s.Access(0, addr+uint64(i)*setStride, Load, sim.Time(6000+i*100))
	}
	if wasted == 0 {
		t.Fatal("evicted marked line returned no credit")
	}
}

func TestEnginePrefetchDoesNotConsumeOwnMark(t *testing.T) {
	s := testSystem(1)
	calls := 0
	s.OnCredit = func(int, bool) { calls++ }
	const addr = 0x500000
	r1 := s.Access(0, addr, EnginePrefetch, 0)
	if !r1.Marked {
		t.Fatal("first prefetch did not mark")
	}
	r2 := s.Access(0, addr, EnginePrefetch, 100)
	if r2.Marked {
		t.Fatal("second prefetch marked the same line again")
	}
	if calls != 0 {
		t.Fatalf("prefetch probes returned %d credits", calls)
	}
}

func TestL1HitClearsL2PrefetchBit(t *testing.T) {
	s := testSystem(1)
	used := 0
	s.OnCredit = func(core int, u bool) {
		if u {
			used++
		}
	}
	const addr = 0x600000
	// Demand load installs into L1 and L2.
	s.Access(0, addr, Load, 0)
	// Engine marks the (L2-resident) line.
	r := s.Access(0, addr, EnginePrefetch, 1000)
	if !r.Marked {
		t.Fatal("mark on resident line failed")
	}
	// Demand load now hits L1; the L2 bit must still clear (scale
	// correction, see DESIGN.md).
	s.Access(0, addr, Load, 2000)
	if used != 1 {
		t.Fatalf("L1-shielded credit not returned (used=%d)", used)
	}
	if s.L1ShieldedHits != 1 {
		t.Fatalf("shielded counter %d", s.L1ShieldedHits)
	}
}

func TestDemandCountersExcludeEngine(t *testing.T) {
	s := testSystem(1)
	s.Access(0, 0x700000, EnginePrefetch, 0)
	s.Access(0, 0x710000, EngineLoad, 0)
	if s.DemandL2Accesses != 0 {
		t.Fatalf("engine traffic counted as demand: %d", s.DemandL2Accesses)
	}
	s.Access(0, 0x720000, Load, 0)
	if s.DemandL2Accesses != 1 || s.DemandL2Misses != 1 {
		t.Fatalf("demand counters %d/%d", s.DemandL2Accesses, s.DemandL2Misses)
	}
}

func TestHWPrefetchSkipsTLB(t *testing.T) {
	s := testSystem(1)
	walks := s.TLBs[0].Walks
	s.Access(0, 0x800000, HWPrefetch, 0)
	if s.TLBs[0].Walks != walks {
		t.Fatal("hardware prefetch walked the TLB")
	}
	r := s.Access(0, 0x800000, HWPrefetch, 0)
	_ = r
	// And it marks lines like the engine's prefetches.
	if !s.L2(0).ProbePrefetch(LineAddr(0x800000)) {
		t.Fatal("HW prefetch did not mark")
	}
}

func TestEngineTLBMissRaisesException(t *testing.T) {
	s := testSystem(1)
	r := s.Access(0, 0x900000, EngineLoad, 0)
	if !r.TLBMiss {
		t.Fatal("cold engine access did not report a TLB exception")
	}
	r2 := s.Access(0, 0x900040, EngineLoad, r.Done)
	if r2.TLBMiss {
		t.Fatal("same-page engine access missed after refill")
	}
}

func TestAtomicCostsMoreThanLoad(t *testing.T) {
	s := testSystem(1)
	// Warm the line first.
	r0 := s.Access(0, 0xa00000, Load, 0)
	base := r0.Done
	rl := s.Access(0, 0xa00000, Load, base)
	ra := s.Access(0, 0xa00000, Atomic, rl.Done)
	if ra.Done-rl.Done <= rl.Done-base {
		t.Fatalf("atomic (%d) not more expensive than load (%d)", ra.Done-rl.Done, rl.Done-base)
	}
}

func TestInFlightLineWaits(t *testing.T) {
	s := testSystem(2)
	const addr = 0xb00000
	// Engine prefetch starts a long fill.
	r := s.Access(0, addr, EnginePrefetch, 0)
	// A demand access immediately after sees the line but must wait for
	// the fill, not get it instantly.
	r2 := s.Access(0, addr, Load, 1)
	if r2.Done < r.Done {
		t.Fatalf("demand hit (%d) completed before the in-flight fill (%d)", r2.Done, r.Done)
	}
}

func TestScaleCaches(t *testing.T) {
	cfg := DefaultConfig(4)
	l1, l2, l3 := cfg.L1Lines, cfg.L2Lines, cfg.L3BankLines
	cfg.ScaleCaches(16)
	// Private caches scale by the factor; L3 banks by 4x the factor
	// (the chip keeps all 64 banks at every thread count).
	if cfg.L1Lines != l1/16 || cfg.L2Lines != l2/16 || cfg.L3BankLines != l3/64 {
		t.Fatalf("scaling wrong: %d %d %d", cfg.L1Lines, cfg.L2Lines, cfg.L3BankLines)
	}
	// Associativity floor.
	cfg2 := DefaultConfig(4)
	cfg2.ScaleCaches(1 << 20)
	if cfg2.L1Lines < 2*cfg2.L1Assoc {
		t.Fatal("scaled below associativity floor")
	}
}

// TestScaleCachesKeepsTwoSets scales the Table-3 geometry by factors up
// to 4096 and checks that every level keeps at least 2 sets of its own
// associativity and still builds.
func TestScaleCachesKeepsTwoSets(t *testing.T) {
	for factor := 1; factor <= 4096; factor *= 2 {
		cfg := DefaultConfig(4)
		cfg.ScaleCaches(factor)
		for _, l := range []struct {
			name         string
			lines, assoc int
		}{
			{"L1", cfg.L1Lines, cfg.L1Assoc},
			{"L2", cfg.L2Lines, cfg.L2Assoc},
			{"L3 bank", cfg.L3BankLines, cfg.L3Assoc},
		} {
			if sets := l.lines / l.assoc; sets < 2 {
				t.Errorf("factor %d: %s has %d lines of %d ways, %d set(s); want at least 2", factor, l.name, l.lines, l.assoc, sets)
			}
			NewCache(l.lines, l.assoc)
		}
	}
}

func TestMeshDims(t *testing.T) {
	// The chip is fixed at (at least) 64 tiles regardless of the active
	// core count; only >64-core requests grow the mesh.
	for _, cores := range []int{1, 2, 8, 64} {
		cfg := DefaultConfig(cores)
		if cfg.MeshW != 8 || cfg.MeshH != 8 {
			t.Fatalf("%d cores: mesh %dx%d, want 8x8", cores, cfg.MeshW, cfg.MeshH)
		}
		if cfg.ChipCores != 64 {
			t.Fatalf("%d cores: chip %d, want 64", cores, cfg.ChipCores)
		}
	}
	if cfg := DefaultConfig(100); cfg.MeshW*cfg.MeshH < 100 {
		t.Fatalf("100 cores: mesh %dx%d too small", cfg.MeshW, cfg.MeshH)
	}
}

// TestPrefetchLedgerExact drives a marked line down each of its four
// fates — used by a demand load, evicted unused, invalidated by another
// core's write, still marked — and checks that CheckInvariants finds the
// summed L2 ledger balanced, then that a doctored counter unbalances it.
func TestPrefetchLedgerExact(t *testing.T) {
	s := testSystem(2)
	cfg := s.Config()
	setStride := uint64(cfg.L2Lines/cfg.L2Assoc) * LineSize
	const used, evicted, inval, kept = 0x400000, 0x400040, 0x400080, 0x4000c0
	now := sim.Time(0)
	access := func(core int, addr uint64, k Kind) {
		now = s.Access(core, addr, k, now).Done + 1
	}
	for _, addr := range []uint64{used, evicted, inval, kept} {
		access(0, addr, EnginePrefetch)
	}
	access(0, used, Load)
	for i := 1; i <= cfg.L2Assoc+1; i++ {
		access(0, evicted+uint64(i)*setStride, Load)
	}
	access(1, inval, Store)
	l2 := s.L2Counters()
	if l2.PrefetchUsed == 0 || l2.PrefetchWaste == 0 || s.WasteInval == 0 || s.PrefetchMarked([]int{0, 1}) == 0 {
		t.Fatalf("not every fate reached: used %d, evicted %d, invalidated %d, marked %d",
			l2.PrefetchUsed, l2.PrefetchWaste, s.WasteInval, s.PrefetchMarked([]int{0, 1}))
	}
	if v := s.CheckInvariants(); len(v) != 0 {
		t.Fatalf("invariants: %v", v)
	}
	for name, doctor := range map[string]func(d int64){
		"fills":       func(d int64) { s.l2[0].Stats.PrefetchFills += d },
		"used":        func(d int64) { s.l2[1].Stats.PrefetchUsed += d },
		"invalidated": func(d int64) { s.WasteInval += d },
	} {
		doctor(1)
		v := s.CheckInvariants()
		doctor(-1)
		if len(v) == 0 {
			t.Errorf("doctored %s counter passed the ledger check", name)
		}
	}
	if v := s.CheckInvariants(); len(v) != 0 {
		t.Fatalf("invariants after undoing the doctoring: %v", v)
	}
}
