// Package sim provides the discrete-event simulation kernel.
//
// The simulator follows a "bound-weave"-like scheme inspired by ZSim: each
// actor (a CPU core, a Minnow engine, a bulk-synchronous sweep) owns a
// local clock. The engine repeatedly steps the actor with the smallest
// local time. Shared resources (L3 banks, NoC links, DRAM channels) keep
// busy-until reservations, so contention between actors is modeled even
// though each actor advances its clock privately during a step.
//
// Determinism: ties on local time are broken by actor ID, and actors may
// only interact through simulated-time-stamped resource reservations or
// through data structures they mutate while running (which the min-time
// ordering serializes), so a given configuration and seed always produces
// identical cycle counts.
//
// Wake-during-step contract: an actor's Step may call Engine.Wake for any
// actor, including wakes that schedule a dormant actor ahead of everything
// currently queued. Run tracks the stepping actor by its heap index, so a
// nested Wake that displaces it from the heap root is honored exactly: the
// woken actor runs at its requested (clamped) time, the stepping actor is
// removed or rescheduled at its own position, and no wakeup is lost. A
// self-wake during a step is a no-op on ordering (the stepping actor's
// queued time is already <= the frontier, and Wake never delays an entry);
// an actor that returns done is retired regardless and must be re-armed by
// a Wake issued after its step returns.
//
// Observability: SetProbe installs a read-only callback invoked whenever
// the frontier crosses a fixed cycle boundary (the obs package's sampling
// registry hooks in here). The probe fires before the actor scheduled at
// or past the boundary steps, so a sample stamped B reflects exactly the
// work completed strictly before cycle B; probes must only read state —
// calling Wake or mutating actors from a probe would break the
// determinism contract above. A disabled probe costs one comparison per
// frontier advance.
//
// Robustness: SetWatchdog installs the event loop's one step-count hook,
// polled every N steps. When it reports true the engine stops cleanly
// between steps — Halted distinguishes that from a drain or a step-bound
// stop — and Queued exposes a deterministic dump of the pending schedule
// for a diagnostic snapshot. The hook only reads, so a run it never stops
// is byte-identical to one without it; that is what lets a host fold
// liveness arms (no progress, cycle budget exceeded) and cooperative
// cancellation into the one callback and arm it on every run. The host
// records which arm fired. A disabled hook costs one nil check per step.
//
// Concurrent stepping: RunParallel executes the same schedule as Run in
// fixed-size epochs, stepping actors that prove (via the optional
// BoundedActor interface) that they cannot interact inside the epoch on a
// host worker pool, and weaving everything else serially in (time, ID)
// order. The determinism contract extends unchanged to this mode: for
// runs that drain (neither halted by the watchdog nor stopped by the step
// bound), the frontier, step count, per-actor step sequence, and probe
// callback sequence are bit-identical to Run for every worker count,
// including 1. Actors that do not implement BoundedActor — or that return
// a horizon at or before their next step — always weave, so the mode is
// adoptable one actor type at a time and degrades to exactly the serial
// behavior when no actor is bound-eligible. See parallel.go for the epoch
// algorithm and the horizon contract.
package sim

import "sort"

// timeMax is the disabled-probe sentinel; no simulation reaches it.
const timeMax = Time(1) << 62

// Time is a simulated time in core clock cycles.
type Time int64

// Actor is a schedulable entity with its own local clock.
//
// Step runs the actor's next unit of work (one task, one threadlet, one
// sweep chunk, ...), advancing its local clock. It returns the actor's new
// local time and whether the actor wants to keep running. An actor that
// returns done=true is removed from the scheduler; it can be re-armed with
// Engine.Wake.
type Actor interface {
	// Step executes the next unit of work at the actor's current local
	// time and returns the time at which the actor next wants to run.
	Step() (next Time, done bool)
}

type entry struct {
	at    Time
	id    int
	actor Actor
	ba    BoundedActor // non-nil when the actor declares horizons
	index int          // heap index, -1 when not queued

	// Bound-phase bookkeeping, valid only while epoch == Engine.epoch.
	// stepTimes records the local times of the steps this actor executed
	// ahead of the weave during the current epoch's bound phase; Wake uses
	// it to reconcile weave-phase wakes against already-executed history.
	// safeUntil is min(declared horizon, epoch end) and is re-derived
	// after every bound step from the actor's (dynamic) horizon; boundEnd
	// pins the epoch end so a growing horizon can never escape the window.
	epoch      int64
	safeUntil  Time
	boundEnd   Time
	stepTimes  []Time
	boundSteps int64
	boundDone  bool
	panicked   any
}

// actorHeap is a binary min-heap of the queued entries in (at, id)
// order. Every method keeps each entry's index field equal to its slot.
// It sifts exactly as container/heap does, so the slot layout is the
// one that package would produce for the same operations.
type actorHeap []*entry

// before is the heap order: earlier time first, then lower ID.
func before(a, b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.id < b.id
}

// push queues ent.
func (h *actorHeap) push(ent *entry) {
	*h = append(*h, ent)
	h.up(len(*h) - 1)
}

// fix restores the order after the entry at slot i changed its time.
func (h actorHeap) fix(i int) {
	if !h.down(i, len(h)) {
		h.up(i)
	}
}

// remove dequeues the entry at slot i.
func (h *actorHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	ent := old[i]
	if i != n {
		old[i] = old[n]
		old[i].index = i
		if !old[:n].down(i, n) {
			old.up(i)
		}
	}
	old[n] = nil
	ent.index = -1
	*h = old[:n]
}

// up moves the entry at slot j toward the root while it sorts before
// its parent.
func (h actorHeap) up(j int) {
	ent := h[j]
	for j > 0 {
		i := (j - 1) / 2
		p := h[i]
		if !before(ent, p) {
			break
		}
		h[j], p.index = p, j
		j = i
	}
	h[j], ent.index = ent, j
}

// down moves the entry at slot i0 toward the leaves of the first n
// slots while a child sorts before it, and reports whether it moved.
func (h actorHeap) down(i0, n int) bool {
	ent := h[i0]
	i := i0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && before(h[j2], h[j]) {
			j = j2
		}
		c := h[j]
		if !before(c, ent) {
			break
		}
		h[i], c.index = c, i
		i = j
	}
	h[i], ent.index = ent, i
	return i > i0
}

// Engine schedules actors in simulated-time order.
type Engine struct {
	heap    actorHeap
	entries []*entry // by actor ID
	now     Time
	steps   int64

	probeAt    Time // next boundary; timeMax when no probe is installed
	probeEvery Time
	probeFn    func(at Time)

	wdEvery int64       // steps between watchdog polls
	wdNext  int64       // step count at which the watchdog next fires
	wdFn    func() bool // reports true to halt the run; nil when disabled
	halted  bool        // last Run was stopped by the watchdog

	// Parallel (bound/weave) execution state; see parallel.go. epoch is 0
	// while no RunParallel epoch has ever started, so the per-Wake stamp
	// check below short-circuits to a single comparison in serial runs.
	epoch      int64 // current epoch stamp; entries carry the stamp they were bound under
	inBound    bool  // a bound phase is executing; Engine methods are off-limits
	steppingID int   // ID of the weave actor currently stepping (-1 outside a weave step)
	boundTotal int64 // steps executed in bound phases (subset of steps)
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{probeAt: timeMax, steppingID: -1}
}

// SetProbe installs fn to be called with each crossed boundary time
// (every, 2*every, ...) as the frontier advances. The probe observes
// only: it runs before the actor at or past the boundary steps and must
// not wake actors or mutate simulation state. A nil fn or non-positive
// interval disables probing.
func (e *Engine) SetProbe(every Time, fn func(at Time)) {
	if fn == nil || every <= 0 {
		e.probeAt, e.probeEvery, e.probeFn = timeMax, 0, nil
		return
	}
	e.probeEvery = every
	e.probeFn = fn
	e.probeAt = every
	for e.probeAt <= e.now {
		e.probeAt += every
	}
}

// fireProbe emits one callback per boundary the frontier crossed. A
// frontier jump over multiple boundaries yields one callback per
// boundary, so sampling cadence stays cycle-aligned even through idle
// gaps.
func (e *Engine) fireProbe() {
	for e.probeAt <= e.now {
		at := e.probeAt
		e.probeAt += e.probeEvery
		e.probeFn(at)
	}
}

// advanceFrontier moves the frontier forward to at (never backwards),
// replaying every probe boundary the jump crossed. This is the single
// frontier-advance path shared by the serial loop, the parallel epoch
// open, and the weave loop: a sparse schedule whose idle gap skips
// several boundaries at once fires the same per-boundary callback
// sequence no matter which execution mode crossed the gap.
func (e *Engine) advanceFrontier(at Time) {
	if at > e.now {
		e.now = at
		if e.now >= e.probeAt {
			e.fireProbe()
		}
	}
}

// SetWatchdog installs fn to be polled once every `every` actor steps
// during Run (and RunParallel, which polls at epoch boundaries and per
// weave step on the same step-count cadence). If fn returns true the run
// stops cleanly between steps: Run returns (Now(), false) and Halted()
// reports true until the next Run. The callback may read any simulation
// state (including Queued) but must not wake actors or mutate them. It
// runs on the simulation goroutine, so any host-side condition it reads
// (a cancel flag) must be safe for concurrent use. A nil fn or
// non-positive interval disables the watchdog, which then costs one nil
// check per step.
func (e *Engine) SetWatchdog(every int64, fn func() bool) {
	if fn == nil || every <= 0 {
		e.wdEvery, e.wdNext, e.wdFn = 0, 0, nil
		return
	}
	e.wdEvery = every
	e.wdNext = e.steps + every
	e.wdFn = fn
}

// Halted reports whether the most recent Run was stopped by the watchdog
// (as opposed to draining or hitting the step bound).
func (e *Engine) Halted() bool { return e.halted }

// QueuedActor describes one scheduled actor for diagnostics: its ID and
// the local time at which it will next step.
type QueuedActor struct {
	// ID is the actor's scheduler ID (Register order).
	ID int
	// At is the simulated time of the actor's next step.
	At Time
}

// Queued returns the scheduled actors in deterministic (time, ID) order —
// the per-actor clock dump for watchdog snapshots. It copies and sorts;
// the schedule itself is not mutated.
func (e *Engine) Queued() []QueuedActor {
	out := make([]QueuedActor, 0, len(e.heap))
	for _, ent := range e.heap {
		out = append(out, QueuedActor{ID: ent.id, At: ent.at})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Register adds an actor and returns its ID. The actor is initially
// dormant; call Wake to schedule its first step. If the actor also
// implements BoundedActor its horizon is consulted by RunParallel; plain
// actors always weave.
func (e *Engine) Register(a Actor) int {
	id := len(e.entries)
	ent := &entry{id: id, actor: a, index: -1}
	ent.ba, _ = a.(BoundedActor)
	e.entries = append(e.entries, ent)
	return id
}

// Wake (re-)schedules actor id to step at time at. If the actor is already
// queued, it is rescheduled to min(current, at). Wake must not be called
// from a bound-phase step (see BoundedActor); during a RunParallel weave
// it additionally reconciles the wake against bound-phase history so the
// outcome is exactly what the serial engine would have done.
func (e *Engine) Wake(id int, at Time) {
	if e.inBound {
		panic("sim: Wake called during a bound phase — a BoundedActor interacted with the engine before its declared horizon")
	}
	ent := e.entries[id]
	if at < e.now {
		at = e.now
	}
	// Reconcile against bound-phase history whenever the entry still
	// carries recorded run-ahead steps — not just when it was bound in
	// the current epoch: an epoch can close early (the weave hands a
	// freshly bound-eligible actor back to the partition), leaving a
	// prior epoch's bound steps ahead of the frontier. History fully in
	// the past resolves to regular handling inside resolveBoundWake.
	if len(ent.stepTimes) > 0 && !e.resolveBoundWake(ent, at) {
		return // absorbed: the serial schedule would have no-op'd this wake
	}
	if ent.index >= 0 {
		if at < ent.at {
			ent.at = at
			e.heap.fix(ent.index)
		}
		return
	}
	ent.at = at
	e.heap.push(ent)
}

// Now returns the local time of the most recently stepped actor — the
// simulation frontier.
func (e *Engine) Now() Time { return e.now }

// Steps returns the total number of actor steps executed, a cheap progress
// and liveness metric.
func (e *Engine) Steps() int64 { return e.steps }

// Idle reports whether no actor is scheduled.
func (e *Engine) Idle() bool { return len(e.heap) == 0 }

// Run steps actors in time order until no actor is scheduled or until
// maxSteps actor steps have executed (0 means unbounded). It returns the
// final frontier time and whether the run drained (as opposed to hitting
// the step bound).
func (e *Engine) Run(maxSteps int64) (Time, bool) {
	e.halted = false
	for len(e.heap) > 0 {
		if maxSteps > 0 && e.steps >= maxSteps {
			return e.now, false
		}
		if e.wdFn != nil && e.steps >= e.wdNext {
			e.wdNext = e.steps + e.wdEvery
			if e.wdFn() {
				e.halted = true
				return e.now, false
			}
		}
		ent := e.heap[0]
		e.advanceFrontier(ent.at)
		e.steps++
		// Step may call Wake, which can push or re-sift entries and
		// displace ent from the root; track ent by its heap index (kept
		// current by the actorHeap methods) rather than assuming it is still at
		// index 0.
		next, done := ent.actor.Step()
		if done {
			if ent.index >= 0 {
				e.heap.remove(ent.index)
			}
			continue
		}
		if next < e.now {
			next = e.now
		}
		ent.at = next
		if ent.index >= 0 {
			e.heap.fix(ent.index)
		} else {
			e.heap.push(ent)
		}
	}
	return e.now, true
}
