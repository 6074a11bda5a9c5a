// Package core implements the paper's contribution: the Minnow engine, a
// lightweight multithreaded offload engine paired with each CMP core
// (§4-§5). The engine
//
//   - offloads worklist operations: a hardened front-end serves
//     minnow_enqueue/minnow_dequeue from a small local queue (Fig. 12),
//     spilling and filling a software global priority worklist that lives
//     in simulated memory and is accessed through the core's L2 and L2
//     TLB (Fig. 13);
//   - performs worklist-directed prefetching: whenever a task enters the
//     local queue it is guaranteed to run on this core, so the engine
//     spawns prefetch threadlets that walk the task's data (Fig. 14),
//     throttled by a credit pool tied to one prefetch bit per L2 line
//     (§5.3.1), with reservation-based deadlock avoidance (§5.3.2).
//
// The engine is a simulation actor: its back-end executes one threadlet
// per Step, context-switching on every L2 access, with in-flight loads
// bounded by the CAM load buffer.
//
// §4 notes that "cores may share a single Minnow engine to reduce
// resources" while the paper evaluates dedicated engines only; this
// implementation supports both — a shared engine keeps one front-end
// (local queue, prefetch streams) per attached core and multiplexes the
// single back-end across them (see NewSharedEngine and the
// shared-engines ablation).
//
// Determinism contract: the engine interacts with the rest of the system
// only through timestamped memory accesses and the wake callback, so its
// spill/fill/prefetch schedule reproduces exactly for a given run. The
// optional event observer (Obs) records those events as they are timed
// and never feeds back into them.
package core

import (
	"fmt"

	"minnow/internal/fault"
	"minnow/internal/mem"
	"minnow/internal/obs"
	"minnow/internal/sim"
	"minnow/internal/stats"
	"minnow/internal/worklist"
)

// Config sets the Minnow engine parameters (§5.1/§6.2 defaults:
// 64-entry local queue at 10-cycle access, 128-entry threadlet queue,
// 32-entry load buffer with 4-cycle wakeup, 32 credits).
type Config struct {
	LocalQ        int
	LocalQLatency sim.Time
	ThreadletQ    int
	LoadBuf       int
	LoadBufWake   sim.Time
	ContextSwitch sim.Time // back-end pipeline occupancy per load issue
	Credits       int
	// RefillThreshold triggers a proactive fill when the local queue
	// drops below it (§5.2).
	RefillThreshold int
	// FillChunk is how many tasks one fill threadlet streams in.
	FillChunk int
	// SpillBatch is how many spilled tasks one threadlet groups under a
	// single global-worklist lock acquisition (§5.2's grouping).
	SpillBatch int
	// LgInterval is the bucket interval of the offloaded priority
	// worklist.
	LgInterval uint
	// Prefetch enables worklist-directed prefetching.
	Prefetch bool
	// Program generates prefetch threadlets per task; nil with Prefetch
	// set means the standard Fig. 14 program must be installed by the
	// harness.
	Program PrefetchProgram
}

// DefaultConfig returns the paper's engine parameters.
func DefaultConfig() Config {
	return Config{
		LocalQ:          64,
		LocalQLatency:   10,
		ThreadletQ:      128,
		LoadBuf:         32,
		LoadBufWake:     4,
		ContextSwitch:   2,
		Credits:         32,
		RefillThreshold: 16,
		FillChunk:       48,
		SpillBatch:      16,
		LgInterval:      3,
		Prefetch:        true,
	}
}

// noBucket is the local-queue bucket value meaning "empty, any priority
// accepted".
const noBucket = int64(1) << 62

// frontEnd is the per-core half of an engine: the hardened local queue
// plus the prefetch streams armed for tasks guaranteed to run on that
// core. Dedicated engines have exactly one.
type frontEnd struct {
	coreID      int
	localQ      worklist.Deque[worklist.Task]
	localBucket int64
	enqSeq      int64 // tasks ever inserted into the local queue
	deqSeq      int64 // tasks ever dequeued from it
	streams     worklist.Deque[*streamState]
	doFill      bool
}

// Engine is a Minnow engine serving one or more cores.
type Engine struct {
	// CoreID is the engine's attach point (its spill/fill traffic goes
	// through this core's L2 and L2 TLB); for dedicated engines it is
	// the one served core.
	CoreID int
	cfg    Config
	mem    *mem.System
	gwl    *GlobalWL

	fes  []*frontEnd
	byID map[int]*frontEnd

	clock sim.Time // shared back-end local time

	spillQ  []worklist.Task // tasks awaiting a spill threadlet
	fillBuf []worklist.Task // GlobalWL.Fill's output, reused across fills
	credits int

	loadDone []sim.Time // load-buffer occupancy ring
	loadSeq  int64

	rr int // round-robin cursor over front-ends

	// wake re-arms this engine actor in the simulation (set by the
	// harness).
	wake func(at sim.Time)

	// Obs, when non-nil, receives every engine event once and routes it
	// to the minnowsim -trace tail and the engine's timeline track (set by
	// the harness).
	Obs *obs.EngineObserver

	// Inj, when non-nil, is the deterministic fault injector (set by the
	// harness). Nil in fault-free runs, costing one comparison per
	// decision point.
	Inj *fault.Injector
	// FaultID is this engine's index in the fault plan's engine space.
	FaultID int

	offline bool // an injected fault took this engine permanently offline
	marked  int  // prefetch-marked L2 lines whose credit is outstanding
	lost    int  // credits dropped in flight by injected credit-loss faults

	Stat stats.EngineStats
}

type streamState struct {
	s       PrefetchStream
	buf     []uint64
	seq     int64 // local-queue sequence number of the stream's task
	started bool
}

// NewEngine builds a dedicated (single-core) engine.
func NewEngine(coreID int, cfg Config, m *mem.System, gwl *GlobalWL) *Engine {
	return NewSharedEngine([]int{coreID}, cfg, m, gwl)
}

// NewSharedEngine builds one engine serving the given cores (§4's
// resource-sharing variant). The first core is the attach point.
func NewSharedEngine(coreIDs []int, cfg Config, m *mem.System, gwl *GlobalWL) *Engine {
	if len(coreIDs) == 0 {
		panic("core: engine needs at least one core")
	}
	// Normalize nonsensical structure sizes to the §5.1 defaults rather
	// than running a broken engine: LoadBuf <= 0 made loadFor divide by a
	// zero-length ring, and LocalQ/ThreadletQ/FillChunk <= 0 livelocked
	// the spill/fill path (every enqueue spills, every fill streams zero
	// tasks). Valid configurations pass through untouched.
	def := DefaultConfig()
	if cfg.LocalQ <= 0 {
		cfg.LocalQ = def.LocalQ
	}
	if cfg.LocalQLatency < 0 {
		cfg.LocalQLatency = def.LocalQLatency
	}
	if cfg.ThreadletQ <= 0 {
		cfg.ThreadletQ = def.ThreadletQ
	}
	if cfg.LoadBuf <= 0 {
		cfg.LoadBuf = def.LoadBuf
	}
	if cfg.FillChunk <= 0 {
		cfg.FillChunk = def.FillChunk
	}
	if cfg.SpillBatch <= 0 {
		cfg.SpillBatch = def.SpillBatch
	}
	if cfg.RefillThreshold < 0 {
		cfg.RefillThreshold = 0
	}
	if cfg.Credits < 0 {
		cfg.Credits = 0
	}
	e := &Engine{
		CoreID:   coreIDs[0],
		cfg:      cfg,
		mem:      m,
		gwl:      gwl,
		credits:  cfg.Credits,
		loadDone: make([]sim.Time, cfg.LoadBuf),
		byID:     make(map[int]*frontEnd, len(coreIDs)),
	}
	for _, id := range coreIDs {
		fe := &frontEnd{coreID: id, localBucket: noBucket}
		e.fes = append(e.fes, fe)
		e.byID[id] = fe
	}
	return e
}

// SetWake installs the actor wake callback.
func (e *Engine) SetWake(f func(at sim.Time)) { e.wake = f }

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// Credits returns the current credit count (tests).
func (e *Engine) Credits() int { return e.credits }

// Clock returns the back-end's local time (diagnostics).
func (e *Engine) Clock() sim.Time { return e.clock }

// Cores returns the IDs of the cores this engine serves.
func (e *Engine) Cores() []int {
	out := make([]int, len(e.fes))
	for i, fe := range e.fes {
		out[i] = fe.coreID
	}
	return out
}

// LocalLen returns the primary core's local queue depth (tests).
func (e *Engine) LocalLen() int { return e.fes[0].localQ.Len() }

// QueuedTasks returns the tasks resident in this engine: local queues
// plus the spill queue awaiting threadlets. Zero-cost bookkeeping the
// observability sampler adds to the global worklist length for the
// paper's occupancy-over-time curves.
func (e *Engine) QueuedTasks() int64 {
	n := int64(len(e.spillQ))
	for _, fe := range e.fes {
		n += int64(fe.localQ.Len())
	}
	return n
}

// bucketOf discretizes a task priority (Fig. 12: priority >> lgBucketInt).
func (e *Engine) bucketOf(p int64) int64 { return p >> e.cfg.LgInterval }

// busy reports whether the back-end has pending threadlets.
func (e *Engine) busy() bool {
	if len(e.spillQ) > 0 {
		return true
	}
	for _, fe := range e.fes {
		if fe.doFill || fe.streams.Len() > 0 {
			return true
		}
	}
	return false
}

// catchUp advances an *idle* back-end's clock to a front-end request's
// arrival time. A busy back-end keeps its own (earlier) clock — it still
// owns the simulated time between the core's coarse-grained steps.
func (e *Engine) catchUp(coreNow sim.Time) {
	if !e.busy() && e.clock < coreNow {
		e.clock = coreNow
	}
}

// Deadlock avoidance (§5.3.2) uses virtual queues per threadlet type with
// reserved entries: spill/fill threadlets and prefetch threadlets each own
// half the threadlet queue. Prefetch streams reserve two entries each (one
// for prefetchTask, one for its spawned prefetchEdge threadlets), and the
// 64-entry local queue times two exactly fits the prefetch half plus the
// spill half of the 128-entry queue; spill threadlets always complete
// without spawning, so the spill virtual queue always drains.

// spillCapacity is the spill/fill virtual queue size.
func (e *Engine) spillCapacity() int { return e.cfg.ThreadletQ / 2 }

// spillBacklog counts occupied spill/fill virtual-queue entries.
func (e *Engine) spillBacklog() int {
	n := len(e.spillQ)
	for _, fe := range e.fes {
		if fe.doFill {
			n++
		}
	}
	return n
}

// streamCount sums pending prefetch streams across front-ends.
func (e *Engine) streamCount() int {
	n := 0
	for _, fe := range e.fes {
		n += fe.streams.Len()
	}
	return n
}

// --- Accelerator interface (called synchronously by the served cores) ---

// Enqueue implements minnow_enqueue from the engine's primary core
// (dedicated-engine API; shared engines use EnqueueFrom).
func (e *Engine) Enqueue(t worklist.Task, coreNow sim.Time) sim.Time {
	return e.EnqueueFrom(e.CoreID, t, coreNow)
}

// EnqueueFrom implements minnow_enqueue: core `coreID` hands (priority,
// task) to its front-end. Returns the time the core may continue. If the
// threadlet queue cannot take another spill, the core stalls until the
// back-end drains (backpressure instead of dropped work).
func (e *Engine) EnqueueFrom(coreID int, t worklist.Task, coreNow sim.Time) sim.Time {
	fe := e.byID[coreID]
	e.catchUp(coreNow)
	done := coreNow + e.cfg.LocalQLatency
	b := e.bucketOf(t.Priority)
	if fe.localQ.Len() < e.cfg.LocalQ && (b <= fe.localBucket || fe.localBucket == noBucket) {
		// Fig. 12 fast path: highest-priority work stays local.
		fe.localQ.PushBack(t)
		fe.localBucket = b
		e.Stat.LocalEnq++
		fe.enqSeq++
		e.Obs.Emit(obs.EvEnqueue, coreNow, done, coreID, int64(t.Node))
		e.startPrefetch(fe, t, fe.enqSeq, done)
		return done
	}
	// Spill to the global worklist via a threadlet. If the spill virtual
	// queue is full, the core stalls while the back-end drains it (spill
	// threadlets never spawn, so this always makes progress).
	for e.spillBacklog() >= e.spillCapacity() {
		if e.clock < done {
			e.clock = done
		}
		if len(e.spillQ) > 0 {
			e.spillOnce()
		} else if !e.step() {
			// The backlog is entirely pending fills and nothing is
			// runnable right now (tiny shared-engine configurations).
			// Draining an empty spill queue would spin forever; accept
			// the task into the spill queue and let the back-end catch
			// up when it wakes.
			break
		}
		if done < e.clock {
			done = e.clock
		}
	}
	e.spillQ = append(e.spillQ, t)
	e.Obs.Emit(obs.EvEnqueueSpill, coreNow, done, coreID, int64(t.Node))
	if e.wake != nil {
		e.wake(done)
	}
	return done
}

// Dequeue implements minnow_dequeue from the primary core.
func (e *Engine) Dequeue(coreNow sim.Time) (worklist.Task, sim.Time, bool) {
	return e.DequeueFrom(e.CoreID, coreNow)
}

// DequeueFrom implements minnow_dequeue: return the next task from core
// `coreID`'s local queue. ok=false means the local queue is empty right
// now; the engine arranges a fill and the core retries (the instruction
// "stalls until a task is available", which the framework models as a
// poll loop).
func (e *Engine) DequeueFrom(coreID int, coreNow sim.Time) (t worklist.Task, ready sim.Time, ok bool) {
	fe := e.byID[coreID]
	e.catchUp(coreNow)
	ready = coreNow + e.cfg.LocalQLatency
	if fe.localQ.Len() > 0 {
		t = fe.localQ.PopFront()
		e.Stat.LocalDeq++
		fe.deqSeq++
		if fe.localQ.Len() == 0 {
			fe.localBucket = noBucket
		}
		e.Obs.Emit(obs.EvDequeue, coreNow, ready, coreID, int64(t.Node))
		e.maybeRefill(fe, ready)
		return t, ready, true
	}
	// Empty: demand a fill if the global worklist may have work.
	e.Obs.Emit(obs.EvDequeueEmpty, coreNow, ready, coreID, 0)
	if e.gwl.Len() > 0 || len(e.spillQ) > 0 {
		fe.doFill = true
		if e.wake != nil {
			e.wake(ready)
		}
	}
	return worklist.Task{}, ready, false
}

// Flush implements minnow_flush: push every front-end's local-queue tasks
// back to the global worklist (core context switch / shutdown). Timing is
// charged to the engine clock.
func (e *Engine) Flush(coreNow sim.Time) sim.Time {
	if e.clock < coreNow {
		e.clock = coreNow
	}
	e.Obs.Emit(obs.EvFlush, coreNow, coreNow, e.CoreID, 0)
	for _, fe := range e.fes {
		for fe.localQ.Len() > 0 {
			e.clock = e.gwl.Spill(e, fe.localQ.PopFront(), e.clock)
			e.Stat.Spills++
		}
		fe.localBucket = noBucket
		fe.streams.Reset()
	}
	// Tasks still waiting for a spill threadlet are part of the flush
	// contract too — leaving them stranded would lose work across a
	// context switch. Empty in ordinary shutdown (termination implies the
	// spill queue drained), so this is free in passing runs.
	e.drainSpills()
	return e.clock
}

// maybeRefill requests a proactive fill when the local queue runs low
// (§5.2) and the global worklist has work the local queue would accept:
// "if tasks at the head of the global worklist are of equal or higher
// priority than the local queue, they are streamed in" — fetching
// lower-priority work while local work remains would only bounce it back.
func (e *Engine) maybeRefill(fe *frontEnd, at sim.Time) {
	if fe.localQ.Len() >= e.cfg.RefillThreshold || fe.doFill || e.gwl.Len() == 0 {
		return
	}
	if fe.localQ.Len() > 0 && e.gwl.MinBucket() > fe.localBucket {
		return
	}
	fe.doFill = true
	if e.wake != nil {
		e.wake(at)
	}
}

// startPrefetch arms a prefetch stream for a task just inserted into a
// local queue ("whenever a Minnow engine enqueues a task into its local
// queue ... triggering a task prefetch", §5.3).
func (e *Engine) startPrefetch(fe *frontEnd, t worklist.Task, seq int64, at sim.Time) {
	if !e.cfg.Prefetch || e.cfg.Program == nil {
		return
	}
	// Reservation check against the prefetch virtual queue: a stream
	// needs 2 entries. With the default sizing (64-entry local queue,
	// 128-entry threadlet queue) this never trips; shrunk configurations
	// skip the prefetch rather than deadlock.
	if 2*(e.streamCount()+1) > e.cfg.ThreadletQ {
		return
	}
	fe.streams.PushBack(&streamState{s: e.cfg.Program.Start(t), seq: seq})
	if e.wake != nil {
		e.wake(at)
	}
}

// --- Back-end (actor) ---

// Horizon implements sim.BoundedActor as an explicit always-weave
// opt-out: every engine threadlet can touch shared state from its first
// cycle — spills and fills go through the global worklist shards, local
// enqueue/dequeue moves tasks other cores observe, prefetches reserve
// shared L3/NoC/DRAM resources and draw from the credit pool, and
// completion calls the registered wake callback. There is no cycle count
// below which an engine step is provably private, so it declares the
// sentinel and the parallel engine serializes it in the weave.
func (e *Engine) Horizon() sim.Time { return sim.HorizonAlwaysWeave }

// Step implements sim.Actor: execute one threadlet.
func (e *Engine) Step() (sim.Time, bool) {
	if e.offline {
		return e.clock, true // dead engine: park forever
	}
	if e.Inj != nil {
		if d := e.Inj.EngineStall(); d > 0 {
			// Injected back-end stall: the engine freezes for d cycles
			// and retries the threadlet afterwards.
			e.clock += d
			e.Stat.FaultStalls++
			e.Stat.StepsRun++
			return e.clock, false
		}
	}
	e.Stat.StepsRun++
	if !e.step() {
		e.Stat.Parks++
		return e.clock, true // park; Wake re-arms
	}
	return e.clock, false
}

// step runs one threadlet; reports whether there was anything to do.
// Scheduling priority: fills first (a core blocks on an empty local
// queue), then prefetch streams (timeliness-critical — a prefetch issued
// after its task already ran is pure pollution), then background spills
// (no core ever waits on them). Front-ends are served round-robin.
func (e *Engine) step() bool {
	lockAt := e.gwl.LockFree(e.CoreID)
	canLock := lockAt <= e.clock

	n := len(e.fes)
	if canLock {
		for i := 0; i < n; i++ {
			fe := e.fes[(e.rr+i)%n]
			if fe.doFill {
				fe.doFill = false
				if e.gwl.Len() == 0 && len(e.spillQ) > 0 {
					// The demanded work sits in our own spill queue;
					// push it out so the fill can find it.
					e.drainSpills()
				}
				e.runFill(fe)
				e.rr++
				e.Stat.Threadlets++
				return true
			}
		}
	}
	for i := 0; i < n; i++ {
		fe := e.fes[(e.rr+i)%n]
		if fe.streams.Len() > 0 {
			if e.stepPrefetch(fe) {
				e.rr++
				return true
			}
			break // credit-stalled: the pool is shared, stop trying
		}
	}
	if len(e.spillQ) > 0 && canLock {
		e.spillOnce()
		return true
	}
	if !canLock && (len(e.spillQ) > 0 || e.anyFill()) {
		// The shard lock is held by another engine and there is nothing
		// else to run: idle this context until the lock frees.
		if lockAt > e.clock {
			e.clock = lockAt
		}
		return true
	}
	return false
}

func (e *Engine) anyFill() bool {
	for _, fe := range e.fes {
		if fe.doFill {
			return true
		}
	}
	return false
}

// spillOnce runs one spill threadlet (a batch under one lock).
func (e *Engine) spillOnce() {
	n := len(e.spillQ)
	if n > e.cfg.SpillBatch {
		n = e.cfg.SpillBatch
	}
	start := e.clock
	e.clock = e.gwl.SpillBatch(e, e.spillQ[:n], e.clock)
	e.spillQ = append(e.spillQ[:0], e.spillQ[n:]...)
	e.Stat.Spills += int64(n)
	e.Stat.Threadlets++
	e.Obs.Emit(obs.EvSpill, start, e.clock, e.CoreID, int64(n))
}

// drainSpills empties the spill queue.
func (e *Engine) drainSpills() {
	for len(e.spillQ) > 0 {
		e.spillOnce()
	}
}

// runFill executes a fill threadlet: stream tasks from the global
// worklist into fe's local queue (Fig. 13).
func (e *Engine) runFill(fe *frontEnd) {
	want := e.cfg.LocalQ - fe.localQ.Len()
	if want > e.cfg.FillChunk {
		want = e.cfg.FillChunk
	}
	if want <= 0 {
		return
	}
	start := e.clock
	tasks, done := e.gwl.Fill(e, want, e.clock)
	e.clock = done
	e.Obs.Emit(obs.EvFill, start, done, fe.coreID, int64(len(tasks)))
	for _, t := range tasks {
		b := e.bucketOf(t.Priority)
		// "If tasks at the head of the global worklist are of equal or
		// higher priority than the local queue, they are streamed in...
		// if the local queue is empty, tasks are unconditionally
		// accepted." Lower-priority stragglers go back.
		if fe.localQ.Len() == 0 || b <= fe.localBucket {
			if fe.localQ.Len() < e.cfg.LocalQ {
				fe.localQ.PushBack(t)
				fe.localBucket = b
				e.Stat.Fills++
				fe.enqSeq++
				e.startPrefetch(fe, t, fe.enqSeq, e.clock)
				continue
			}
		}
		e.spillQ = append(e.spillQ, t)
	}
	e.maybeRefill(fe, e.clock)
}

// load issues one engine load through core's L2, bounded by the load
// buffer, and returns its completion (including the CAM wakeup latency).
func (e *Engine) loadFor(core int, addr uint64, kind mem.Kind) mem.Result {
	issue := e.clock
	if slot := e.loadDone[e.loadSeq%int64(len(e.loadDone))]; slot > issue {
		issue = slot // load buffer full: wait for the oldest entry
	}
	res := e.mem.Access(core, addr, kind, issue)
	res.Done += e.cfg.LoadBufWake
	e.loadDone[e.loadSeq%int64(len(e.loadDone))] = res.Done
	e.loadSeq++
	e.clock = issue + e.cfg.ContextSwitch
	if res.TLBMiss {
		e.Stat.TLBMissExcps++
	}
	return res
}

// load issues an engine load through the attach-point core's L2
// (worklist spill/fill traffic). Under an injected spill-retry fault the
// access transiently fails and is reissued after a bounded exponential
// backoff (the injector caps the attempt count, so the loop terminates).
func (e *Engine) load(addr uint64, kind mem.Kind) mem.Result {
	res := e.loadFor(e.CoreID, addr, kind)
	if e.Inj != nil {
		for attempt := 1; ; attempt++ {
			backoff, failed := e.Inj.SpillRetry(attempt)
			if !failed {
				break
			}
			e.Stat.SpillRetries++
			if e.clock < res.Done {
				e.clock = res.Done
			}
			e.clock += backoff
			res = e.loadFor(e.CoreID, addr, kind)
		}
	}
	return res
}

// stepPrefetch runs one prefetch threadlet: the next chunk of fe's oldest
// stream. Returns false (nothing done) when throttled out of credits.
func (e *Engine) stepPrefetch(fe *frontEnd) bool {
	// Drop streams whose task the core has already dequeued — whether or
	// not they have issued anything. Prefetching behind the execution
	// stream is pure cache pollution, and worse: the marked lines are
	// never demanded, so their credits only come back through slow LRU
	// eviction, starving the prefetcher for everyone else.
	for fe.streams.Len() > 0 {
		st := fe.streams.At(0)
		if st.seq <= fe.deqSeq {
			fe.streams.PopFront()
			e.Stat.LateDrops++
			e.Obs.Emit(obs.EvStreamDrop, e.clock, e.clock, fe.coreID, st.seq)
			continue
		}
		break
	}
	if fe.streams.Len() == 0 {
		return true
	}
	st := fe.streams.At(0)
	if e.credits <= 0 {
		if e.lost > 0 && e.marked == 0 {
			// Credit-leak audit (§5.3.1's pool is the prefetcher's only
			// throttle, so a leaked credit starves it forever): every
			// marked line has been consumed or evicted, yet the pool is
			// still empty — the remaining deficit can only be credits
			// dropped in flight. Re-mint them.
			e.credits += e.lost
			e.Stat.CreditsRecovered += int64(e.lost)
			e.Inj.RecordRecovered(e.lost)
			e.lost = 0
		}
		if e.credits <= 0 {
			// Out of credits: pause prefetching until a credit returns
			// (OnCredit wakes us).
			e.Stat.CreditStalls++
			e.Obs.Emit(obs.EvCreditStall, e.clock, e.clock, fe.coreID, 0)
			return false
		}
	}
	var ok bool
	st.buf, ok = st.s.Next(st.buf[:0])
	if !ok {
		fe.streams.PopFront()
		e.Stat.StreamsDone++
		return true
	}
	st.started = true
	e.Stat.Threadlets++
	pfStart := e.clock
	var prevDone sim.Time
	for i, addr := range st.buf {
		if i > 0 && prevDone > e.clock {
			// Within a threadlet, each load's address comes from the
			// previous load's data (edge -> dest node).
			e.clock = prevDone
		}
		// Prefetches land in the L2 of the core that will run the task.
		res := e.loadFor(fe.coreID, addr, mem.EnginePrefetch)
		prevDone = res.Done
		e.Stat.Prefetches++
		if res.Marked {
			e.marked++
			e.credits--
			if e.credits <= 0 && i < len(st.buf)-1 {
				// Mid-threadlet credit exhaustion: the remaining loads
				// of the threadlet still issue (they were reserved), but
				// record the stall.
				e.Stat.CreditStalls++
			}
		}
	}
	e.Obs.Emit(obs.EvPrefetch, pfStart, e.clock, fe.coreID, int64(len(st.buf)))
	return true
}

// CreditReturn is called by the memory system hook when a prefetch-marked
// line in one of this engine's cores' L2s is consumed or evicted. Under
// an injected credit-loss fault the return is dropped in flight; the leak
// audit in stepPrefetch eventually recovers the pool.
func (e *Engine) CreditReturn(used bool) {
	if e.marked > 0 {
		e.marked--
		if e.Inj != nil && e.Inj.LoseCredit() {
			e.lost++
			e.Stat.CreditsLost++
			if e.streamCount() > 0 && e.wake != nil {
				e.wake(e.clock) // let the leak audit run
			}
			return
		}
	}
	e.credits++
	if e.credits > e.cfg.Credits {
		e.credits = e.cfg.Credits
	}
	if e.streamCount() > 0 && e.wake != nil {
		e.wake(e.clock)
	}
}

// MarkedOutstanding returns how many prefetch-marked L2 lines have not
// yet returned their credit (invariant audits).
func (e *Engine) MarkedOutstanding() int { return e.marked }

// CheckCredits audits the §5.3.1 credit identity at a quiescent point:
// the pool must never be overfull, and credits + marked-outstanding +
// injected-losses must equal the configured pool. Engines whose cores
// also run a hardware prefetcher are exempt — hwpf-marked lines trigger
// spurious (clamped) returns — and the harness skips them.
func (e *Engine) CheckCredits() error {
	if e.cfg.Credits <= 0 {
		return nil
	}
	if e.credits > e.cfg.Credits {
		return fmt.Errorf("core: engine@%d credits %d exceed pool %d", e.CoreID, e.credits, e.cfg.Credits)
	}
	if got := e.credits + e.marked + e.lost; got != e.cfg.Credits {
		return fmt.Errorf("core: engine@%d credit leak: credits %d + marked %d + lost %d = %d, want pool %d",
			e.CoreID, e.credits, e.marked, e.lost, got, e.cfg.Credits)
	}
	return nil
}

// Offline reports whether an injected fault took this engine permanently
// offline.
func (e *Engine) Offline() bool { return e.offline }

// TakeOffline kills the engine (engine-offline fault injection): every
// task resident in its queues — local queues and tasks awaiting spill
// threadlets — is drained out and returned for rescue into the software
// fallback worklist, pending fills and prefetch streams are cancelled,
// and Step parks forever. The return order is deterministic (front-ends
// in attach order, then the spill queue).
func (e *Engine) TakeOffline() []worklist.Task {
	e.offline = true
	var out []worklist.Task
	for _, fe := range e.fes {
		out = fe.localQ.AppendTo(out)
		fe.localQ.Reset()
		fe.localBucket = noBucket
		fe.streams.Reset()
		fe.doFill = false
	}
	out = append(out, e.spillQ...)
	e.spillQ = nil
	e.Stat.Rescued += int64(len(out))
	return out
}
