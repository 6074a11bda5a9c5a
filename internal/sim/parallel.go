// Parallel bound/weave execution.
//
// RunParallel executes the same schedule as Run in epochs of a fixed
// cycle window. Each epoch:
//
//  1. Bound: actors whose next step lies inside the window and that
//     declare (via BoundedActor.Horizon) a horizon strictly beyond it are
//     pulled out of the heap and stepped concurrently on a host worker
//     pool, each up to min(epoch end, horizon). Their steps touch only
//     actor-private state, so any interleaving — including true
//     parallelism — produces the same result as the serial order.
//  2. Weave: every remaining actor is stepped serially in (time, ID)
//     order exactly as Run would, restricted to the window. Weave steps
//     may interact freely: shared resources, Wake, done-then-rearm.
//
// The window is clamped to the next probe boundary, so probes fire at
// epoch starts only, observing exactly the serial prefix of the
// schedule. At the end of each epoch the frontier is folded up to the
// latest step executed in the window (bound or weave), which is the
// serial frontier at that point.
//
// # Horizon contract
//
// An actor implementing BoundedActor promises, when Horizon returns h:
//
//   - Every one of its steps at times strictly before h reads and writes
//     only state no other actor observes, and calls no Engine method
//     (Wake in particular).
//   - No other actor wakes it to a time strictly before h.
//
// The first clause is enforced coarsely: Engine.Wake panics when called
// during a bound phase. The second is enforced exactly: a weave-phase
// Wake targeting an actor that ran ahead in the current epoch is checked
// against the actor's recorded bound-step times — wakes the serial
// engine would have absorbed (rescheduling an already-pending step to
// itself) are absorbed, and wakes that would have rescheduled an
// already-executed step panic deterministically. Returning a horizon at
// or before the actor's next step time opts the actor out of the bound
// phase for that epoch (0 opts out forever); actors that do not
// implement BoundedActor always weave.
//
// # Divergence from Run
//
// For runs that drain, RunParallel is bit-identical to Run: same
// frontier, same step count, same per-actor step sequences, same probe
// sequence, for any worker count and any window. Two knobs behave
// differently only on runs that stop early, and deterministically so:
//
//   - maxSteps is checked per weave step and at epoch boundaries, but a
//     bound phase commits all its steps at once, so a run stopped by the
//     step bound may overshoot maxSteps by up to one epoch's bound work.
//   - The watchdog is polled at epoch boundaries and per weave step, at
//     the same step-count cadence as Run; bound-phase progress is
//     visible to it only at the fold, so a wedged run may be detected up
//     to one epoch later than serially.
//
// Both stay deterministic for a fixed configuration regardless of worker
// count; the differential suites pin the drained case bit-exactly.
package sim

import (
	"fmt"
	"sort"
	"sync"
)

// BoundedActor is an Actor that can declare interaction horizons,
// making it eligible for concurrent stepping inside a RunParallel epoch.
type BoundedActor interface {
	Actor
	// Horizon returns the earliest simulated time at or after which the
	// actor may interact with shared simulation state — touch a shared
	// resource (L3 bank, NoC link, DRAM channel, worklist, credit pool),
	// observe another actor's mutations, or call an Engine method. Steps
	// strictly before the horizon must be actor-private.
	//
	// Horizon is dynamic: it is consulted at each epoch's partition on
	// the coordinating goroutine AND again after every bound-phase step,
	// on a pool goroutine. It must therefore read only actor-private
	// state (never the Engine, never shared resources) and be a pure
	// function of that state. Between steps the horizon may shrink (an
	// off-core event approaching) or grow (the event receded after the
	// step); the bound phase tracks it step by step and hands the actor
	// back to the weave the moment its next step is no longer provably
	// private.
	//
	// Return HorizonAlwaysWeave for an actor that can interact on any
	// step (the shared-resource default); return HorizonNever for an
	// actor whose whole remaining lifetime is private. Any value at or
	// before the actor's next step time opts it out of the bound phase
	// for that epoch.
	Horizon() Time
}

// HorizonNever is the Horizon value for an actor that never interacts
// with shared simulation state: it is bound-stepped through every epoch
// it is scheduled in.
const HorizonNever = timeMax

// HorizonAlwaysWeave is the Horizon value for an actor that may touch
// shared simulation state on its very next step, opting it out of every
// bound phase. It is deliberately negative: a computed horizon can be a
// genuine 0 ("private strictly before cycle 0", i.e. nothing), and the
// explicit sentinel keeps always-weave declarations distinguishable from
// a lookahead computation that happened to bottom out. The partition
// treats any horizon at or before the actor's next step time as weave,
// so the two behave identically; the constant exists so intent is
// auditable.
const HorizonAlwaysWeave = Time(-1)

// DefaultEpochWindow is the bound/weave epoch length, in cycles, used
// when RunParallel is given a non-positive window.
const DefaultEpochWindow = Time(8192)

// maxBoundStepsPerEpoch caps one actor's steps inside a single bound
// phase so a non-advancing actor (legal: Step may return its current
// time) cannot spin forever outside the weave loop's budget checks. A
// capped actor requeues and finishes the window in the weave, where
// maxSteps and the watchdog are enforced per step.
const maxBoundStepsPerEpoch = 1 << 16

// BoundSteps returns how many actor steps were executed inside bound
// phases across all RunParallel calls — the concurrency the horizon
// declarations actually bought. It is a subset of Steps and is zero for
// purely serial runs.
func (e *Engine) BoundSteps() int64 { return e.boundTotal }

// RunParallel is Run with epoch-based concurrent stepping: it steps
// actors until no actor is scheduled or maxSteps steps have executed
// (0 means unbounded), returning the final frontier and whether the run
// drained. window is the epoch length in cycles (non-positive selects
// DefaultEpochWindow) and workers the host worker-pool size (values
// below 1 are treated as 1; workers == 1 exercises the full epoch
// machinery without host concurrency). See the package comment and the
// file comment above for the equivalence contract.
func (e *Engine) RunParallel(maxSteps int64, window Time, workers int) (Time, bool) {
	if window <= 0 {
		window = DefaultEpochWindow
	}
	if workers < 1 {
		workers = 1
	}
	e.halted = false
	pool := newBoundPool(workers)
	defer pool.close()
	var bound []*entry
	// boundMax tracks the latest bound-phase step time of the whole run.
	// It folds into the frontier only at return: mid-run, the frontier
	// must keep tracking the weave position — bound steps past it are in
	// the serial schedule's future, and folding them early would inflate
	// the next<now clamp and skip probe replays the serial engine performs.
	boundMax := Time(-1)
	for len(e.heap) > 0 {
		if maxSteps > 0 && e.steps >= maxSteps {
			return e.foldFrontier(boundMax), false
		}
		if e.wdFn != nil && e.steps >= e.wdNext {
			e.wdNext = e.steps + e.wdEvery
			if e.wdFn() {
				e.halted = true
				return e.foldFrontier(boundMax), false
			}
		}
		// Open the epoch: advance the frontier to the first pending step
		// via the shared advanceFrontier path, which replays every probe
		// boundary the idle gap crossed — a sparse schedule jumping
		// multiple boundaries at once fires one callback per boundary,
		// exactly as Run's next step would. The window is then clamped to
		// the next boundary so no bound step can cross one.
		start := e.heap[0].at
		e.advanceFrontier(start)
		end := start + window
		if e.probeAt < end {
			end = e.probeAt
		}
		e.epoch++

		// Partition: pull out actors with provable headroom. The heap's
		// internal order is deterministic for a fixed schedule, and the
		// bound results do not depend on partition order anyway.
		bound = bound[:0]
		for _, ent := range e.heap {
			if ent.ba == nil || ent.at >= end {
				continue
			}
			if h := ent.ba.Horizon(); h > ent.at {
				ent.boundEnd = end
				ent.safeUntil = h
				if end < h {
					ent.safeUntil = end
				}
				bound = append(bound, ent)
			}
		}
		if len(bound) > 0 {
			for _, ent := range bound {
				e.heap.remove(ent.index)
				ent.epoch = e.epoch
				ent.stepTimes = ent.stepTimes[:0]
				ent.boundSteps = 0
				ent.boundDone = false
				ent.panicked = nil
			}
			e.inBound = true
			pool.run(bound)
			e.inBound = false
			// Fold: commit step counts, remember the latest bound step for
			// the end-of-epoch frontier, requeue survivors, and re-raise
			// the lowest-ID panic so a crashing actor fails the run
			// identically for every worker count.
			var repanic any
			repanicID := -1
			for _, ent := range bound {
				e.steps += ent.boundSteps
				e.boundTotal += ent.boundSteps
				if n := len(ent.stepTimes); n > 0 && ent.stepTimes[n-1] > boundMax {
					boundMax = ent.stepTimes[n-1]
				}
				if ent.panicked != nil && (repanicID < 0 || ent.id < repanicID) {
					repanic, repanicID = ent.panicked, ent.id
				}
				if !ent.boundDone {
					e.heap.push(ent)
				}
			}
			if repanic != nil {
				panic(repanic)
			}
		}

		// Weave: Run's loop body, restricted to the window. Bound actors
		// that stopped early (cap, or horizon inside the window) requeued
		// above and finish the window here under full serial semantics.
		for len(e.heap) > 0 && e.heap[0].at < end {
			if maxSteps > 0 && e.steps >= maxSteps {
				return e.foldFrontier(boundMax), false
			}
			if e.wdFn != nil && e.steps >= e.wdNext {
				e.wdNext = e.steps + e.wdEvery
				if e.wdFn() {
					e.halted = true
					return e.foldFrontier(boundMax), false
				}
			}
			ent := e.heap[0]
			// A weave step can hand its actor a fresh private stretch —
			// a worker entering an idle backoff under shared horizons, a
			// drift actor whose window re-opened. If the next pending
			// step is bound-eligible, close the epoch early and let the
			// partition take it instead of burning the headroom serially;
			// the new epoch opens at this exact entry, so the frontier
			// and probe sequence are unchanged. The partition is
			// guaranteed to extract the entry (same h > at test), so the
			// bound phase makes at least one step of progress and the
			// outer loop cannot spin.
			if ent.ba != nil {
				if h := ent.ba.Horizon(); h > ent.at {
					break
				}
			}
			e.advanceFrontier(ent.at)
			e.steps++
			e.steppingID = ent.id
			next, done := ent.actor.Step()
			e.steppingID = -1
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
	}
	// The serial frontier at drain is the latest executed step, which may
	// belong to a bound actor that ran past the last weave step.
	// boundMax < end <= probeAt for the epoch that produced it, so no
	// probe fires on the fold.
	return e.foldFrontier(boundMax), true
}

// foldFrontier advances the frontier to the latest bound-phase step of
// the current epoch when that outruns the weave, returning the frontier.
func (e *Engine) foldFrontier(boundMax Time) Time {
	if boundMax > e.now {
		e.now = boundMax
	}
	return e.now
}

// resolveBoundWake reconciles a Wake aimed at an actor that ran ahead in
// the current epoch's bound phase. It reports whether regular Wake
// handling should proceed: false means the wake is absorbed because the
// serial engine would have min-rescheduled an already-executed step to
// its own time (a no-op). It panics when the wake would reschedule the
// actor ahead of a step the bound phase already executed — rewriting
// history the horizon declared untouchable.
func (e *Engine) resolveBoundWake(ent *entry, at Time) bool {
	// First recorded bound step ordered after the waker's (time, ID)
	// position in the serial schedule. stepTimes is nondecreasing, so
	// the predicate is monotone.
	ts := ent.stepTimes
	j := sort.Search(len(ts), func(i int) bool {
		return ts[i] > e.now || (ts[i] == e.now && ent.id > e.steppingID)
	})
	if j == len(ts) {
		// Every bound step precedes the waker; the actor's pending time
		// reflects all of them, so regular handling is serial-exact
		// (including re-arming an actor that retired in the bound phase).
		return true
	}
	if ts[j] <= at {
		return false
	}
	panic(fmt.Sprintf(
		"sim: Wake(%d, %d) at frontier %d would reschedule the actor ahead of its bound-phase step at %d (horizon contract violation)",
		ent.id, int64(at), int64(e.now), int64(ts[j])))
}

// stepBound runs one actor's bound phase: step while the pending time is
// inside the actor's safe window, recording each step's time for wake
// reconciliation. The actor's horizon is re-consulted after every step —
// conservative-lookahead horizons move as the actor's next off-core
// event approaches or recedes — so the safe window shrinks and grows
// step by step, clamped to the epoch end. Runs on a pool goroutine;
// touches only the entry and the actor's private state (which is why
// Horizon must read nothing shared).
func stepBound(ent *entry) {
	defer func() {
		if r := recover(); r != nil {
			ent.panicked = r
		}
	}()
	t := ent.at
	for t < ent.safeUntil && ent.boundSteps < maxBoundStepsPerEpoch {
		ent.boundSteps++
		ent.stepTimes = append(ent.stepTimes, t)
		next, done := ent.actor.Step()
		if done {
			ent.boundDone = true
			return
		}
		// The serial engine would clamp to its frontier, which equals this
		// actor's time whenever it is the one stepping.
		if next < t {
			next = t
		}
		t = next
		// Dynamic horizon: the step may have moved the actor's next
		// interaction point. A shrink below t hands the remaining window
		// back to the weave; a growth extends the private stretch up to
		// the epoch end.
		ent.safeUntil = ent.boundEnd
		if h := ent.ba.Horizon(); h < ent.safeUntil {
			ent.safeUntil = h
		}
	}
	ent.at = t
}

// boundPool fans bound-phase work out to a fixed set of goroutines. With
// one worker it degenerates to inline execution on the coordinator, so
// workers == 1 runs the epoch machinery with zero host concurrency.
type boundPool struct {
	tasks chan *entry
	wg    sync.WaitGroup
}

func newBoundPool(workers int) *boundPool {
	p := &boundPool{}
	if workers > 1 {
		p.tasks = make(chan *entry)
		for i := 0; i < workers; i++ {
			go func() {
				for ent := range p.tasks {
					stepBound(ent)
					p.wg.Done()
				}
			}()
		}
	}
	return p
}

// run executes one epoch's bound set and blocks until every actor's
// phase completes; the WaitGroup join publishes all entry mutations to
// the coordinator.
func (p *boundPool) run(bound []*entry) {
	if p.tasks == nil {
		for _, ent := range bound {
			stepBound(ent)
		}
		return
	}
	p.wg.Add(len(bound))
	for _, ent := range bound {
		p.tasks <- ent
	}
	p.wg.Wait()
}

// close releases the pool goroutines; the pool must not be used after.
func (p *boundPool) close() {
	if p.tasks != nil {
		close(p.tasks)
	}
}
