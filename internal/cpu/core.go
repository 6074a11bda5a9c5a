// Package cpu models an out-of-order Skylake-like core at the level the
// paper's experiments need: instruction windows (ROB / reservation station
// / load queue / store queue) that bound memory-level parallelism, x86-TSO
// fences at atomics, and branch-mispredict issue stalls resolved by a TAGE
// predictor — the three mechanisms Fig. 4 sweeps.
//
// The model is interval-style: micro-ops issue in order at IssueWidth per
// cycle, complete out of order (loads through the simulated memory
// hierarchy), and retire in order through a ROB-sized ring. Retire-time
// gaps are attributed to cycle categories for the Fig. 5 breakdown.
//
// Determinism contract: a core's timing depends only on the micro-op
// stream it is fed and the memory system's (deterministic) responses;
// the core holds no randomness of its own beyond the TAGE predictor's
// deterministic tables. The optional observability hooks (TL/Track)
// observe retire-time stalls and never feed back into timing.
//
// Bound/weave placement: although the pipeline structures (ROB, queues,
// predictor) are private to the core, every memory micro-op calls into
// the shared mem.System — updating demand counters, directory state, and
// L3/NoC/DRAM reservations — so a core-driving actor interacts with
// shared state from its first simulated instruction. Actors built on
// this model declare sim.HorizonAlwaysWeave in sim.Engine.RunParallel
// unless the pending step is a pure clock advance (Advance with no
// timeline attached), which touches only per-core state and is the
// lookahead galois.Config.SharedHorizons exposes.
package cpu

import (
	"minnow/internal/bpred"
	"minnow/internal/mem"
	"minnow/internal/obs"
	"minnow/internal/prof"
	"minnow/internal/sim"
	"minnow/internal/stats"
	"minnow/internal/uops"
)

// Config sets the core microarchitecture (Table 3 defaults via
// DefaultConfig).
type Config struct {
	IssueWidth int
	ROB        int
	RS         int
	LoadQueue  int
	StoreQueue int
	MispredPen sim.Time // pipeline refill after a mispredict
	PerfectBP  bool     // Fig. 4 "ideal": no branch stalls
	NoFences   bool     // Fig. 4 "ideal": atomics don't serialize
}

// DefaultConfig mirrors Table 3: 224-entry ROB, 97-entry unified RS,
// 72-entry LQ, 56-entry SQ, 4-wide issue.
func DefaultConfig() Config {
	return Config{
		IssueWidth: 4,
		ROB:        224,
		RS:         97,
		LoadQueue:  72,
		StoreQueue: 56,
		MispredPen: 15,
	}
}

// ScaledROB returns a config with the given ROB size and every buffer
// scaled by the same ratio, as the Fig. 4 sweep prescribes ("each
// configuration keeps the same buffer sizing ratio", normalized to
// 256 ROB / 128 RS / 64 LQ / 64 SQ).
func ScaledROB(rob int) Config {
	c := DefaultConfig()
	c.ROB = rob
	c.RS = rob / 2
	c.LoadQueue = rob / 4
	c.StoreQueue = rob / 4
	return c
}

// Prefetcher observes the core's demand-load stream (hardware prefetcher
// baselines: stride, IMP). OnLoad is called for every load with its static
// site, address, and issue time; the implementation issues its own
// HWPrefetch accesses against the memory system.
type Prefetcher interface {
	OnLoad(pc, addr uint64, at sim.Time)
}

// Core is one simulated core. It is not an actor itself; the framework
// worker that owns it drives it by calling Run.
type Core struct {
	ID   int
	cfg  Config
	mem  *mem.System
	bp   *bpred.Predictor
	Stat stats.CoreStats

	// Prefetcher, when non-nil, snoops demand loads.
	Prefetcher Prefetcher

	// TL, when non-nil, receives stall instants on Track (timeline
	// observability; set by the harness together with Track).
	TL    *obs.Timeline
	Track obs.TrackID

	// Prof, when non-nil, receives the refined cycle attribution (the
	// top-down profiler; set by the harness under -profile). Every cycle
	// charged to Stat.Cycles is mirrored into exactly one Prof leaf.
	Prof *prof.CoreProf

	// region and cursor scope profiler attribution sites: the framework
	// brackets worklist operations with ProfRegion/ProfRestore, and
	// cursor counts micro-ops within the current region.
	region prof.Region
	cursor int

	now sim.Time

	// Window rings, each with a cursor that wraps at its length: the
	// cursor's slot holds the time of the op issued a full window ago
	// (the oldest in flight), and push overwrites it with the newest.
	retireAt  []sim.Time // retire times of the last ROB uops
	robPos    int
	rsDone    []sim.Time // completion times of the last RS uops
	rsPos     int
	loadDone  []sim.Time // completion times of the last LQ loads
	loadPos   int
	storeDone []sim.Time // completion times of the last SQ stores/atomics
	storePos  int

	lastRetire   sim.Time // retire time of the most recent uop (in-order retire)
	lastLoadDone sim.Time // completion of the most recent load (dependences)
	fenceUntil   sim.Time // memory ops may not issue before this
	issueFree    sim.Time // next cycle the front-end can issue

	pendingMemDone sim.Time // max completion among in-flight mem ops
}

// New builds a core attached to the shared memory system.
func New(id int, cfg Config, m *mem.System) *Core {
	return &Core{
		ID:        id,
		cfg:       cfg,
		mem:       m,
		bp:        bpred.New(),
		retireAt:  make([]sim.Time, cfg.ROB),
		loadDone:  make([]sim.Time, cfg.LoadQueue),
		storeDone: make([]sim.Time, cfg.StoreQueue),
		rsDone:    make([]sim.Time, cfg.RS),
	}
}

// Now returns the core's local clock.
func (c *Core) Now() sim.Time { return c.now }

// Config returns the core configuration.
func (c *Core) Config() Config { return c.cfg }

// ProfRegion enters profiler region r, returning the previous region and
// micro-op cursor for ProfRestore. The fields it touches feed only the
// (observe-only) profiler, so bracketing is timing-neutral whether or not
// profiling is enabled.
func (c *Core) ProfRegion(r prof.Region) (prof.Region, int) {
	prev, cur := c.region, c.cursor
	c.region = r
	c.cursor = 0
	return prev, cur
}

// ProfRestore re-enters the region saved by a ProfRegion call.
func (c *Core) ProfRestore(r prof.Region, cursor int) {
	c.region = r
	c.cursor = cursor
}

// stallInstantMin is the smallest retire-time gap worth an EvStall*
// timeline instant; shorter gaps are pipeline noise that would swamp the
// trace without explaining anything.
const stallInstantMin = 48

// windowSlot reserves a slot in a window ring: the new op may not issue
// before the op a full window back, in the cursor's slot, has completed.
func windowSlot(ring []sim.Time, pos int, issue sim.Time) sim.Time {
	if prev := ring[pos]; prev > issue {
		issue = prev
	}
	return issue
}

// push records v as the newest time in a window ring and advances the
// cursor, wrapping it at the ring's length.
func push(ring []sim.Time, pos *int, v sim.Time) {
	ring[*pos] = v
	if *pos++; *pos == len(ring) {
		*pos = 0
	}
}

// Run executes a micro-op batch starting at the core's local clock,
// advancing it past the batch's retirement. All cycles consumed are
// attributed to category cat (worklist operations pass CatWorklist;
// operator bodies pass CatUseful, within which memory-stall cycles are
// re-attributed to the load/store-miss categories).
func (c *Core) Run(ops []uops.UOp, cat stats.CycleCat) {
	// The front-end resumes no earlier than the batch's start time; it
	// does NOT wait for prior retirement (only the ROB window does).
	if c.issueFree < c.now {
		c.issueFree = c.now
	}
	for i := range ops {
		op := &ops[i]
		// Front-end: in-order issue at IssueWidth ops/cycle.
		issue := c.issueFree

		// ROB: cannot issue until the op ROB-entries back has retired.
		issue = windowSlot(c.retireAt, c.robPos, issue)
		// RS: bounded in-flight uncompleted uops.
		issue = windowSlot(c.rsDone, c.rsPos, issue)

		var complete sim.Time
		var stallCat stats.CycleCat = cat

		// Refined-attribution inputs for the profiler: the micro-op's
		// stall cause, the level that served its memory access, the
		// prefetch outcome of that access, and whether a branch actually
		// mispredicted. Pure bookkeeping — never feeds back into timing.
		cause := prof.CauseUseful
		lvl, out := prof.LvlNone, prof.OutNone
		mispredicted := false

		switch op.Kind {
		case uops.Compute:
			n := int(op.N)
			c.Stat.Instrs += int64(n)
			groups := (n + c.cfg.IssueWidth - 1) / c.cfg.IssueWidth
			complete = issue + sim.Time(groups)
			c.issueFree = issue + sim.Time(groups)

		case uops.Load:
			c.Stat.Instrs++
			c.Stat.Loads++
			if op.Delinquent {
				c.Stat.Delinquent++
			}
			issue = windowSlot(c.loadDone, c.loadPos, issue)
			if !c.cfg.NoFences && issue < c.fenceUntil {
				issue = c.fenceUntil
			}
			if op.DepLoad && c.lastLoadDone > issue {
				issue = c.lastLoadDone
			}
			res := c.mem.Access(c.ID, op.Addr, mem.Load, issue)
			complete = res.Done
			push(c.loadDone, &c.loadPos, complete)
			c.lastLoadDone = complete
			if c.Prefetcher != nil {
				c.Prefetcher.OnLoad(op.PC, op.Addr, issue)
			}
			if cat == stats.CatUseful && res.Level >= 3 {
				stallCat = stats.CatLoadMiss
			}
			cause = prof.CauseLoad
			lvl, out = prof.ClassifyMem(res.Level, res.Remote, res.UsedPrefetch, res.PFLate)
			c.issueFree = issue + 1

		case uops.Store:
			c.Stat.Instrs++
			issue = windowSlot(c.storeDone, c.storePos, issue)
			if !c.cfg.NoFences && issue < c.fenceUntil {
				issue = c.fenceUntil
			}
			res := c.mem.Access(c.ID, op.Addr, mem.Store, issue)
			complete = res.Done
			push(c.storeDone, &c.storePos, complete)
			if cat == stats.CatUseful && res.Level >= 3 {
				stallCat = stats.CatStoreMiss
			}
			cause = prof.CauseStore
			lvl, out = prof.ClassifyMem(res.Level, res.Remote, res.UsedPrefetch, res.PFLate)
			c.issueFree = issue + 1

		case uops.Atomic:
			c.Stat.Instrs++
			c.Stat.Atomics++
			issue = windowSlot(c.storeDone, c.storePos, issue)
			if !c.cfg.NoFences {
				// x86-TSO: all prior loads and stores must have
				// completed before the locked RMW executes.
				if c.pendingMemDone > issue {
					issue = c.pendingMemDone
				}
				if issue < c.fenceUntil {
					issue = c.fenceUntil
				}
			}
			res := c.mem.Access(c.ID, op.Addr, mem.Atomic, issue)
			complete = res.Done
			if !c.cfg.NoFences {
				// Later memory ops wait for the RMW to complete.
				c.fenceUntil = complete
			}
			push(c.storeDone, &c.storePos, complete)
			if cat == stats.CatUseful {
				stallCat = stats.CatStoreMiss
			}
			cause = prof.CauseFence
			lvl, out = prof.ClassifyMem(res.Level, res.Remote, res.UsedPrefetch, res.PFLate)
			c.issueFree = issue + 1

		case uops.Branch:
			c.Stat.Instrs++
			c.Stat.Branches++
			misp := c.bp.Predict(op.PC, op.Taken)
			resolve := issue + 1
			if op.DepBranch && c.lastLoadDone > resolve {
				// The branch resolves only when its input load returns —
				// the costly case §3.3 highlights.
				resolve = c.lastLoadDone
			}
			complete = resolve
			if misp && !c.cfg.PerfectBP {
				c.Stat.Mispreds++
				mispredicted = true
				cause = prof.CauseBranch
				// No further issue until resolve + refill.
				c.issueFree = resolve + c.cfg.MispredPen
			} else {
				c.issueFree = issue + 1
			}
		}

		if complete < issue+1 {
			complete = issue + 1
		}
		if op.Kind == uops.Load || op.Kind == uops.Store || op.Kind == uops.Atomic {
			if complete > c.pendingMemDone {
				c.pendingMemDone = complete
			}
		}

		// RS slot frees at completion.
		push(c.rsDone, &c.rsPos, complete)

		// In-order retire.
		prevRetire := c.lastRetire
		retire := complete
		if prevRetire > retire {
			retire = prevRetire
		}
		// Attribute the retire-time gap.
		base := prevRetire
		if c.now > base {
			base = c.now
		}
		if retire > base {
			gap := int64(retire - base)
			// One issue-slot's worth of time is "useful" front-end
			// progress; the remainder is stall attributed to the op.
			c.Stat.Cycles[stallCat] += gap
			if c.Prof != nil {
				pcause := cause
				if rc, ok := prof.RegionCause(c.region); ok {
					// Worklist-operation regions own their cycles
					// whatever micro-op consumed them, matching the flat
					// CatWorklist attribution.
					pcause = rc
				} else if cat == stats.CatWorklist {
					// Unbracketed worklist batch (the BSP-style kernels'
					// queue maintenance): keep the coarse mapping exact.
					pcause = prof.CauseEnqueue
				}
				site := prof.IndexSite(c.region, c.cursor)
				if op.PC != 0 {
					site = prof.PCSite(c.region, op.PC)
				}
				c.Prof.Add(site, pcause, lvl, out, gap)
			}
			if c.TL != nil && gap >= stallInstantMin {
				c.TL.Instant(c.Track, stallKind(stallCat, op.Kind, mispredicted), base, gap)
			}
		}
		push(c.retireAt, &c.robPos, retire)
		c.lastRetire = retire
		c.cursor++
		if retire > c.now {
			c.now = retire
		}
	}
}

// stallKind maps a retire-gap's coarse category onto the timeline stall
// vocabulary so every attributed stall — not just memory misses — gets
// an instant on the core track: load misses, store misses, atomics'
// fence serialization, worklist operations, branch-mispredict refills,
// and plain dependence/issue-width gaps.
func stallKind(cat stats.CycleCat, kind uops.Kind, mispredicted bool) obs.Kind {
	switch cat {
	case stats.CatLoadMiss:
		return obs.EvStallLoad
	case stats.CatStoreMiss:
		if kind == uops.Atomic {
			return obs.EvStallFence
		}
		return obs.EvStallStore
	case stats.CatWorklist:
		return obs.EvStallWorklist
	}
	if mispredicted {
		return obs.EvStallBranch
	}
	return obs.EvStallDep
}

// RunTagged is Run plus per-op-kind counter deltas for worklist-operation
// cost accounting (Fig. 11): it measures the cycles the batch consumed.
func (c *Core) RunTagged(ops []uops.UOp, cat stats.CycleCat) sim.Time {
	start := c.now
	c.Run(ops, cat)
	return c.now - start
}

// Advance idles the core until t, attributing the wait to cat (used for
// blocking worklist dequeues and barriers).
func (c *Core) Advance(t sim.Time, cat stats.CycleCat) {
	if t > c.now {
		gap := int64(t - c.now)
		c.Stat.Cycles[cat] += gap
		if c.Prof != nil {
			cause := prof.CauseUseful
			if rc, ok := prof.RegionCause(c.region); ok {
				cause = rc
			} else if cat == stats.CatWorklist {
				// Unbracketed worklist wait (BSP barriers): a wait for
				// work to appear, kept coarse-consistent.
				cause = prof.CauseDequeue
			}
			c.Prof.Add(prof.WaitSite(c.region), cause, prof.LvlNone, prof.OutNone, gap)
		}
		if c.TL != nil && cat == stats.CatWorklist && gap >= stallInstantMin {
			c.TL.Instant(c.Track, obs.EvStallWorklist, c.now, gap)
		}
		c.now = t
		if c.issueFree < t {
			c.issueFree = t
		}
	}
}
