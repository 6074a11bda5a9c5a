package mem

import (
	"fmt"
	"sort"

	"minnow/internal/dram"
	"minnow/internal/noc"
	"minnow/internal/obs"
	"minnow/internal/sim"
	"minnow/internal/tlb"
)

// Kind distinguishes the access paths through the hierarchy.
type Kind uint8

const (
	// Load is a demand read from a core (starts at L1D).
	Load Kind = iota
	// Store is a demand write from a core (write-allocate at L1D).
	Store
	// Atomic is a read-modify-write from a core; timing like Store plus
	// a lock overhead. Fence semantics are applied by the core model.
	Atomic
	// EngineLoad is a Minnow-engine read; it enters at the core's L2
	// (engines have no L1 connection, §4).
	EngineLoad
	// EngineStore is a Minnow-engine write entering at the L2.
	EngineStore
	// EnginePrefetch is a Minnow-engine prefetch read: like EngineLoad
	// but the filled/touched L2 line is marked with the prefetch bit.
	EnginePrefetch
	// EngineAtomic is a Minnow-engine read-modify-write (global-worklist
	// lock and pointer updates) entering at the L2.
	EngineAtomic
	// HWPrefetch is a hardware-prefetcher fill (stride / IMP baselines):
	// like EnginePrefetch but physically addressed (no TLB) — the line is
	// still marked so prefetch efficiency is measurable.
	HWPrefetch
)

// Result reports the outcome of one access.
type Result struct {
	Done         sim.Time // completion (data available) time
	Level        uint8    // 1=L1, 2=L2, 3=L3, 4=DRAM
	Marked       bool     // EnginePrefetch marked a previously unmarked line
	UsedPrefetch bool     // demand access consumed a prefetch-marked line
	TLBMiss      bool     // engine access raised a TLB-miss exception
	Remote       bool     // data forwarded from a remote L2's modified copy
	PFLate       bool     // the consumed prefetched line was still in flight
}

// Config sets the hierarchy geometry and latencies. The defaults in
// DefaultConfig mirror Table 3; experiment harnesses typically scale
// capacities down together with graph sizes (see DESIGN.md).
type Config struct {
	// Cores is the number of active cores (worker threads).
	Cores int
	// ChipCores is the physical chip size: the mesh, L3 bank count, and
	// controller placement are sized for this many tiles regardless of
	// how many cores are active (a thread sweep does not shrink the
	// machine). 0 defaults to max(Cores, 64).
	ChipCores int

	L1Lines, L1Assoc int
	L2Lines, L2Assoc int
	L3BankLines      int // per-core bank
	L3Assoc          int

	L1Latency     sim.Time
	L2Latency     sim.Time
	L3Latency     sim.Time
	L3BankService sim.Time // bank occupancy per access

	AtomicExtra sim.Time // extra cycles for RMW at the cache

	MeshW, MeshH int
	HopCycles    sim.Time

	DRAM dram.Config
	TLB  tlb.Config
}

// DefaultConfig returns the Table-3 geometry: 32KB L1D (8w), 256KB L2
// (8w), 2MB L3 bank/core (16w), 4/7/27-cycle latencies, 8x8 mesh at 3
// cycles/hop, 12 DDR4 channels. The chip is always the full 64-tile part
// (or larger if more cores are requested); Cores only sets how many tiles
// run worker threads.
func DefaultConfig(cores int) Config {
	chip := cores
	if chip < 64 {
		chip = 64
	}
	w, h := meshDims(chip)
	return Config{
		Cores:         cores,
		ChipCores:     chip,
		L1Lines:       32 * 1024 / LineSize,
		L1Assoc:       8,
		L2Lines:       256 * 1024 / LineSize,
		L2Assoc:       8,
		L3BankLines:   2 * 1024 * 1024 / LineSize,
		L3Assoc:       16,
		L1Latency:     4,
		L2Latency:     7,
		L3Latency:     27,
		L3BankService: 2,
		AtomicExtra:   15,
		MeshW:         w,
		MeshH:         h,
		HopCycles:     3,
		DRAM:          dram.DefaultConfig(),
		TLB:           tlb.DefaultConfig(),
	}
}

// meshDims picks the smallest mesh that fits the core count.
func meshDims(cores int) (w, h int) {
	w, h = 1, 1
	for w*h < cores {
		if w <= h {
			w++
		} else {
			h++
		}
	}
	return
}

// ScaleCaches divides the private cache capacities by factor and the L3
// banks by 4*factor (keeping associativity), used to keep scaled-down
// graph inputs DRAM-resident the way the paper's full-size inputs are:
// the fixed 64-bank L3 would otherwise swallow the scaled inputs whole.
func (c *Config) ScaleCaches(factor int) {
	scale := func(lines, f int) int {
		l := lines / f
		// keep at least 2 sets per way
		min := 2 * c.L1Assoc
		if l < min {
			l = min
		}
		return l
	}
	c.L1Lines = scale(c.L1Lines, factor)
	c.L2Lines = scale(c.L2Lines, factor)
	c.L3BankLines = scale(c.L3BankLines, 4*factor)
	// TLBs are NOT scaled: 4KB pages do not shrink with the caches, and
	// the paper's ZSim baseline models translation only for the Minnow
	// engine's exception path. A scaled TLB would add a worker-side
	// translation bottleneck the paper never measures (the engine sharing
	// the core's L2 TLB would thrash it).
}

// System is the full simulated memory hierarchy shared by all cores and
// engines.
type System struct {
	cfg  Config
	Mesh *noc.Mesh
	DRAM *dram.Memory
	TLBs []*tlb.TLB

	l1  []*Cache
	l2  []*Cache
	l3  []*Cache // one bank per core
	l3p []busyUntil

	dir directory

	// OnCredit, when set, is invoked whenever a prefetch-marked line in
	// core's L2 is consumed by a demand access (used=true) or evicted or
	// invalidated untouched (used=false). Minnow's credit pool hooks in
	// here.
	OnCredit func(core int, used bool)

	// TL, when non-nil, receives demand L2-miss and writeback instants on
	// MemTrack (timeline observability; set by the harness). The hooks
	// observe only — they never alter access timing.
	TL       *obs.Timeline
	MemTrack obs.TrackID

	DRAMReads int64
	InvMsgs   int64

	// Demand-side L2 counters (exclude engine/prefetcher traffic): the
	// paper's MPKI is demand misses per kilo-instruction.
	DemandL2Accesses int64
	DemandL2Misses   int64
	L1ShieldedHits   int64 // demand L1 hits to lines still marked in L2
	DemandLatencySum int64 // total demand-load latency (diagnostics)
	DemandCount      int64
	DirtyRemote      int64 // reads served from a remote modified copy
	lastDone         sim.Time
	lastLevel        uint8
	LatByLevel       [5]int64
	CntByLevel       [5]int64

	// Prefetch-waste attribution (diagnostics).
	WastePFEvict     int64 // marked line evicted by another prefetch fill
	WasteDemandEvict int64 // marked line evicted by a demand fill
	WasteInval       int64 // marked line invalidated by a remote write
}

// NewSystem builds the hierarchy: private caches and TLBs for the active
// cores, L3 banks and ports for every chip tile.
func NewSystem(cfg Config) *System {
	if cfg.ChipCores < cfg.Cores {
		cfg.ChipCores = cfg.Cores
	}
	if cfg.ChipCores == 0 {
		cfg.ChipCores = 64
	}
	s := &System{
		cfg:  cfg,
		Mesh: noc.New(cfg.MeshW, cfg.MeshH, cfg.HopCycles),
		DRAM: dram.New(cfg.DRAM),
		dir:  newDirectory(cfg.Cores * cfg.L2Lines),
	}
	for i := 0; i < cfg.Cores; i++ {
		s.TLBs = append(s.TLBs, tlb.New(cfg.TLB))
		s.l1 = append(s.l1, NewCache(cfg.L1Lines, cfg.L1Assoc))
		s.l2 = append(s.l2, NewCache(cfg.L2Lines, cfg.L2Assoc))
	}
	for i := 0; i < cfg.ChipCores; i++ {
		s.l3 = append(s.l3, NewCache(cfg.L3BankLines, cfg.L3Assoc))
		s.l3p = append(s.l3p, busyUntil{service: cfg.L3BankService})
	}
	return s
}

// Config returns the active configuration.
func (s *System) Config() Config { return s.cfg }

// L2 exposes a core's L2 cache (tests and the Minnow engine use this).
func (s *System) L2(core int) *Cache { return s.l2[core] }

// bankOf hashes a line to its home L3 bank (all chip tiles, not just the
// active cores).
func (s *System) bankOf(line uint64) int {
	// Multiplicative hash spreads the CSR's sequential lines across banks.
	return int((line * 0x9e3779b97f4a7c15 >> 32) % uint64(s.cfg.ChipCores))
}

// ctrlNodeOf places memory controllers around the mesh edge.
func (s *System) ctrlNodeOf(line uint64) int {
	ch := int(line % uint64(s.cfg.DRAM.Channels))
	h := s.cfg.MeshH
	if ch < h {
		return ch * s.cfg.MeshW // west edge
	}
	return (ch-h)%h*s.cfg.MeshW + (s.cfg.MeshW - 1) // east edge
}

// readyWindow caps how long an access waits on a line's in-flight fill
// (readyAt). Genuine fill overlap is bounded by one miss latency;
// anything larger reflects actor clock skew (bound-weave approximation),
// not a real in-flight line. Same treatment as the busy-until contention
// windows in noc/dram.
const readyWindow = 512

// waitReady applies the windowed readyAt wait.
func waitReady(done, rdy sim.Time) sim.Time {
	if rdy > done && rdy-done <= readyWindow {
		return rdy
	}
	return done
}

func (s *System) creditEvent(core int, used bool) {
	if s.OnCredit != nil {
		s.OnCredit(core, used)
	}
}

// handleL2Evict processes a line displaced from core's L2: prefetch-bit
// accounting and directory cleanup.
func (s *System) handleL2Evict(core int, ev Evicted) {
	if !ev.Valid {
		return
	}
	if ev.Prefetch {
		s.creditEvent(core, false)
	}
	if i, ok := s.dir.find(ev.Line); ok {
		e := &s.dir.slots[i]
		e.sharers &^= 1 << uint(core)
		if e.dirtyOwner == int8(core) {
			e.dirtyOwner = -1
		}
		if e.sharers == 0 {
			s.dir.deleteAt(i)
		}
	}
}

// needsExclusive reports whether a write hit by core must fetch exclusive
// ownership because another core shares or owns the line. When it need
// not, a tracked line is marked dirty in core's name.
func (s *System) needsExclusive(core int, line uint64) bool {
	i, ok := s.dir.find(line)
	if !ok {
		return false
	}
	e := &s.dir.slots[i]
	if e.sharers&^(1<<uint(core)) != 0 || (e.dirtyOwner >= 0 && int(e.dirtyOwner) != core) {
		return true
	}
	e.dirtyOwner = int8(core)
	return false
}

// fetchShared brings a line to core's L2 from L3/DRAM, handling the
// directory, and returns the time data arrives at the core tile, the
// level that supplied it, and whether a remote L2's modified copy served
// it. write requests exclusive ownership.
func (s *System) fetchShared(core int, line uint64, write bool, t sim.Time) (sim.Time, uint8, bool) {
	bank := s.bankOf(line)
	// Request flit to the home bank.
	t = s.Mesh.Traverse(core, bank, t)
	t = s.l3p[bank].reserve(t)
	level := uint8(3)
	remote := false

	e, tracked := s.dir.get(line)
	if !tracked {
		e = dirEntry{dirtyOwner: -1}
	}

	// Remote dirty copy: retrieve from the owner (3-hop style simplification:
	// bank -> owner -> bank), demoting it to shared (or invalid on write).
	if e.dirtyOwner >= 0 && int(e.dirtyOwner) != core {
		owner := int(e.dirtyOwner)
		remote = true
		if !write {
			s.DirtyRemote++
		}
		t = s.Mesh.Traverse(bank, owner, t)
		s.InvMsgs++
		if write {
			_, _, pf := s.l2[owner].Invalidate(line)
			s.l1[owner].Invalidate(line)
			if pf {
				s.WasteInval++
				s.creditEvent(owner, false)
			}
			e.sharers &^= 1 << uint(owner)
		}
		e.dirtyOwner = -1
		t = s.Mesh.Traverse(owner, bank, t)
		// The L3 now holds the up-to-date data.
		if !s.l3[bank].Contains(line) {
			s.l3[bank].Fill(line, true, false, t)
		}
		t += s.cfg.L3Latency
	} else if hit, _, rdy := s.l3[bank].Lookup(line, false, true); hit {
		t = waitReady(t+s.cfg.L3Latency, rdy) // in-flight fill wait
	} else {
		// L3 miss: to the memory controller and DRAM.
		ctrl := s.ctrlNodeOf(line)
		t = s.Mesh.Traverse(bank, ctrl, t)
		t = s.DRAM.Access(line, t)
		s.DRAMReads++
		t = s.Mesh.Traverse(ctrl, bank, t)
		s.l3[bank].Fill(line, false, false, t)
		level = 4
	}

	// Write: invalidate all other sharers (overlapped; pay the farthest).
	if write && e.sharers&^(1<<uint(core)) != 0 {
		var worst sim.Time
		for c := 0; c < s.cfg.Cores; c++ {
			if c == core || e.sharers&(1<<uint(c)) == 0 {
				continue
			}
			_, _, pf := s.l2[c].Invalidate(line)
			s.l1[c].Invalidate(line)
			if pf {
				s.WasteInval++
				s.creditEvent(c, false)
			}
			s.InvMsgs++
			arr := s.Mesh.RoundTrip(bank, c, t)
			if arr > worst {
				worst = arr
			}
		}
		if worst > t {
			t = worst
		}
		e.sharers = 0
	}

	e.sharers |= 1 << uint(core)
	if write {
		e.dirtyOwner = int8(core)
	}
	s.dir.put(line, e)

	// Data flit back to the requesting tile.
	t = s.Mesh.Traverse(bank, core, t)
	return t, level, remote
}

// Access runs one memory access through the hierarchy and returns its
// timing and outcome. now is the time the access reaches the L1 (core
// accesses) or the L2 (engine accesses).
// MinLatency returns the hierarchy's conservative timing floor for one
// access kind: the uncontended best-case completion delta. Demand
// accesses enter at the L1 and pay at least its lookup latency; engine
// and hardware-prefetch accesses enter at the L2; atomics add the RMW
// surcharge on every path. Every Access completes at or after
// now+MinLatency(kind) — TLB walks, deeper levels, bank service,
// directory forwarding, mesh hops, and DRAM queueing only add to it.
// The floor reads only immutable configuration (safe anywhere, bound
// phases included); like the mesh and DRAM floors it bounds when an
// access *completes*, while the shared reservations it makes start at
// issue time, so it cannot by itself extend an actor's horizon past its
// next access.
func (s *System) MinLatency(kind Kind) sim.Time {
	switch kind {
	case Atomic:
		return s.cfg.L1Latency + s.cfg.AtomicExtra
	case EngineAtomic:
		return s.cfg.L2Latency + s.cfg.AtomicExtra
	case EngineLoad, EngineStore, EnginePrefetch, HWPrefetch:
		return s.cfg.L2Latency
	default: // Load, Store
		return s.cfg.L1Latency
	}
}

func (s *System) Access(core int, addr uint64, kind Kind, now sim.Time) Result {
	if kind == Load {
		start := now
		defer func(st sim.Time) {
			s.DemandCount++
			lat := int64(s.lastDone - st)
			s.DemandLatencySum += lat
			lv := s.lastLevel
			if lv > 4 {
				lv = 4
			}
			s.LatByLevel[lv] += lat
			s.CntByLevel[lv]++
		}(start)
	}
	line := LineAddr(addr)
	res := Result{}
	write := kind == Store || kind == Atomic || kind == EngineStore || kind == EngineAtomic
	prefetch := kind == EnginePrefetch || kind == HWPrefetch
	engine := kind == EngineLoad || kind == EngineStore || kind == EngineAtomic || prefetch

	// Address translation (hardware prefetchers are physically addressed).
	switch {
	case kind == HWPrefetch:
	case engine:
		d, exc := s.TLBs[core].EngineTranslate(addr)
		now += d
		res.TLBMiss = exc
	default:
		now += s.TLBs[core].Translate(addr)
	}

	if !engine {
		if hit, _, rdy := s.l1[core].Lookup(line, write, true); hit {
			if s.l2[core].ClearPrefetch(line) {
				// The demand access was satisfied by the L1, but it is
				// still the prefetched line's first use: clear the bit
				// and return the credit (at full scale the line would
				// not be L1-resident; see DESIGN.md).
				s.L1ShieldedHits++
				res.UsedPrefetch = true
				s.creditEvent(core, true)
			}
			res.Done = waitReady(now+s.cfg.L1Latency, rdy)
			res.Level = 1
			if kind == Atomic {
				res.Done += s.cfg.AtomicExtra
			}
			s.lastDone = res.Done
			s.lastLevel = 1
			// Even an L1 hit may need exclusivity if the line is shared
			// elsewhere; approximate: only charge when the directory has
			// other sharers.
			if write && s.needsExclusive(core, line) {
				done, _, _ := s.fetchShared(core, line, true, now)
				res.Done = done + s.cfg.L1Latency
				res.Level = 2
			}
			s.lastDone = res.Done
			s.lastLevel = res.Level
			return res
		}
		now += s.cfg.L1Latency // L1 lookup time before going below
	}

	// L2 lookup.
	hit, wasPF, rdy := s.l2[core].Lookup(line, write, !prefetch)
	if !engine {
		s.DemandL2Accesses++
		if !hit {
			s.DemandL2Misses++
		}
	}
	if wasPF && !prefetch {
		res.UsedPrefetch = true
		s.creditEvent(core, true)
	}
	if hit {
		done := waitReady(now+s.cfg.L2Latency, rdy) // in-flight fill wait
		if res.UsedPrefetch && done > now+s.cfg.L2Latency {
			res.PFLate = true // first use caught the fill still in flight
		}
		res.Level = 2
		if kind == Atomic || kind == EngineAtomic {
			done += s.cfg.AtomicExtra
		}
		if write && s.needsExclusive(core, line) {
			done, _, _ = s.fetchShared(core, line, true, done)
		}
		if prefetch {
			res.Marked = s.l2[core].MarkPrefetch(line)
		}
		if !engine {
			// L1 evictions need no bookkeeping: the L2 keeps the data.
			s.l1[core].Fill(line, write, false, done)
		}
		res.Done = done
		s.lastDone = res.Done
		s.lastLevel = res.Level
		return res
	}

	// L2 miss: out to the shared levels.
	done, level, remote := s.fetchShared(core, line, write, now+s.cfg.L2Latency)
	res.Level = level
	res.Remote = remote
	if kind == Atomic || kind == EngineAtomic {
		done += s.cfg.AtomicExtra
	}
	if s.TL != nil && !engine {
		// arg packs the requesting core with the supplying level so one
		// track carries the whole demand miss stream.
		s.TL.Instant(s.MemTrack, obs.EvL2Miss, now, int64(core)<<8|int64(level))
	}
	evl2 := s.l2[core].Fill(line, write, prefetch, done)
	if s.TL != nil && evl2.Valid && evl2.Dirty {
		s.TL.Instant(s.MemTrack, obs.EvWriteback, done, int64(core))
	}
	if evl2.Valid && evl2.Prefetch {
		if prefetch {
			s.WastePFEvict++
		} else {
			s.WasteDemandEvict++
		}
	}
	s.handleL2Evict(core, evl2)
	if prefetch {
		res.Marked = true
	}
	if !engine {
		s.l1[core].Fill(line, write, false, done)
	}
	res.Done = done
	s.lastDone = res.Done
	s.lastLevel = res.Level
	return res
}

// CheckInvariants audits directory and cache sanity, returning one
// message per violation (empty means clean, sorted for determinism).
// Read-only — safe to call from a watchdog mid-run or post-run:
//
//   - every directory entry names at least one sharer, a dirty owner
//     that is itself a sharer, and no cores beyond the active set;
//   - every valid L2 line is tracked by the directory with its core's
//     sharer bit set (L2 inclusion in the directory's view);
//   - per-cache counters satisfy their arithmetic identities
//     (writebacks <= evictions, misses <= accesses, prefetch
//     used+waste <= fills).
func (s *System) CheckInvariants() []string {
	var v []string
	s.dir.each(func(line uint64, e dirEntry) {
		if e.sharers == 0 {
			v = append(v, fmt.Sprintf("mem: dir line %#x has no sharers but was not reclaimed", line))
		}
		if e.dirtyOwner >= 0 && e.sharers&(1<<uint(e.dirtyOwner)) == 0 {
			v = append(v, fmt.Sprintf("mem: dir line %#x dirty owner %d missing from sharer mask %#x", line, e.dirtyOwner, e.sharers))
		}
		if s.cfg.Cores < 64 && e.sharers>>uint(s.cfg.Cores) != 0 {
			v = append(v, fmt.Sprintf("mem: dir line %#x sharer mask %#x names cores beyond the %d active", line, e.sharers, s.cfg.Cores))
		}
	})
	var lines []uint64
	for core, c := range s.l2 {
		lines = c.ValidLines(lines[:0])
		for _, line := range lines {
			if e, ok := s.dir.get(line); !ok || e.sharers&(1<<uint(core)) == 0 {
				v = append(v, fmt.Sprintf("mem: core %d L2 holds line %#x the directory does not track for it", core, line))
			}
		}
	}
	checkCounters := func(name string, st CacheCounters) {
		if st.Writebacks > st.Evictions {
			v = append(v, fmt.Sprintf("mem: %s writebacks %d exceed evictions %d", name, st.Writebacks, st.Evictions))
		}
		if st.Misses > st.Accesses {
			v = append(v, fmt.Sprintf("mem: %s misses %d exceed accesses %d", name, st.Misses, st.Accesses))
		}
		if st.PrefetchUsed+st.PrefetchWaste > st.PrefetchFills {
			v = append(v, fmt.Sprintf("mem: %s prefetch used %d + waste %d exceed fills %d", name, st.PrefetchUsed, st.PrefetchWaste, st.PrefetchFills))
		}
	}
	for i, c := range s.l2 {
		checkCounters(fmt.Sprintf("l2[%d]", i), c.Stats)
	}
	for i, c := range s.l3 {
		checkCounters(fmt.Sprintf("l3[%d]", i), c.Stats)
	}
	sort.Strings(v)
	return v
}

// PrefetchMarked sums the prefetch-marked L2 lines across the given
// cores (credit-accounting audit).
func (s *System) PrefetchMarked(cores []int) int {
	n := 0
	for _, c := range cores {
		n += s.l2[c].CountPrefetchMarked()
	}
	return n
}

// L2Counters aggregates the counters of all L2 caches.
func (s *System) L2Counters() CacheCounters {
	var out CacheCounters
	for _, c := range s.l2 {
		out.Accesses += c.Stats.Accesses
		out.Misses += c.Stats.Misses
		out.Evictions += c.Stats.Evictions
		out.Writebacks += c.Stats.Writebacks
		out.PrefetchFills += c.Stats.PrefetchFills
		out.PrefetchUsed += c.Stats.PrefetchUsed
		out.PrefetchWaste += c.Stats.PrefetchWaste
	}
	return out
}

// L3Counters aggregates the counters of all L3 banks.
func (s *System) L3Counters() CacheCounters {
	var out CacheCounters
	for _, c := range s.l3 {
		out.Accesses += c.Stats.Accesses
		out.Misses += c.Stats.Misses
		out.Evictions += c.Stats.Evictions
		out.Writebacks += c.Stats.Writebacks
	}
	return out
}
