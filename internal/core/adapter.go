package core

import (
	"minnow/internal/fault"
	"minnow/internal/galois"
	"minnow/internal/prof"
	"minnow/internal/worklist"
)

// MinnowScheduler adapts Minnow engines to the galois.Scheduler
// interface: worker threads issue minnow_enqueue / minnow_dequeue
// accelerator calls to their core's engine (Fig. 9 — workers call the
// Galois API, which translates to Minnow accelerator calls). With engine
// sharing, several cores route to the same engine.
//
// When failover is armed (engine-offline fault injection), the scheduler
// also implements the paper's engine-optional degradation: the moment a
// planned engine death is observed, every task resident in the Minnow
// fabric is rescued into a software fallback worklist and the dead
// engine's cores switch to it permanently. Fault-free runs never arm
// failover, so the only added cost is one nil comparison per operation.
type MinnowScheduler struct {
	byCore []*Engine // indexed by core ID

	inj      *fault.Injector
	gwl      *GlobalWL
	fallback worklist.Worklist
}

// NewMinnowScheduler builds the per-core routing table from a set of
// engines (dedicated or shared).
func NewMinnowScheduler(engines []*Engine, cores int) *MinnowScheduler {
	m := &MinnowScheduler{byCore: make([]*Engine, cores)}
	for _, e := range engines {
		for _, c := range e.Cores() {
			m.byCore[c] = e
		}
	}
	return m
}

// EngineFor returns the engine serving a core.
func (m *MinnowScheduler) EngineFor(core int) *Engine { return m.byCore[core] }

// EnableFailover arms the engine-offline degradation path: when the
// fault plan kills an engine, its resident tasks (plus the global
// worklist, whose only clients are the engines) drain into fb and the
// dead engine's cores use fb from then on. Called by the harness only
// when the plan contains an engine-offline clause.
func (m *MinnowScheduler) EnableFailover(inj *fault.Injector, gwl *GlobalWL, fb worklist.Worklist) {
	m.inj, m.gwl, m.fallback = inj, gwl, fb
}

// Fallback returns the software worklist dead engines' cores degrade to
// (nil unless EnableFailover armed it).
func (m *MinnowScheduler) Fallback() worklist.Worklist { return m.fallback }

// degraded reports whether the worker's engine is (or just became)
// offline, performing the one-time rescue drain on the transition. Only
// called with failover armed.
func (m *MinnowScheduler) degraded(e *Engine, w *galois.Worker) bool {
	if e.Offline() {
		return true
	}
	at, dies := m.inj.EngineOfflineAt(e.FaultID)
	if !dies || w.Core.Now() < at {
		return false
	}
	// The engine dies now. Rescue every task it holds, plus the global
	// worklist's contents, into the software fallback so no work is lost
	// (task conservation is what the chaos sweep asserts).
	tasks := e.TakeOffline()
	tasks = append(tasks, m.gwl.DrainAll()...)
	for _, t := range tasks {
		m.fallback.Push(&w.Ctx, t)
	}
	m.inj.RecordOffline(len(tasks))
	return true
}

// Push implements galois.Scheduler via minnow_enqueue.
func (m *MinnowScheduler) Push(w *galois.Worker, t worklist.Task) {
	e := m.byCore[w.Core.ID]
	if m.fallback != nil && m.degraded(e, w) {
		m.fallback.Push(&w.Ctx, t)
		return
	}
	now := w.Core.Now()
	done := e.EnqueueFrom(w.Core.ID, t, now)
	// Split the wait at the nominal local-queue latency: anything beyond
	// it is the engine's spill path holding the core (§5.1 backpressure),
	// which has its own cause. Both are worklist causes, so the flat
	// worklist counter gets the identical total either way.
	nominal := now + e.Config().LocalQLatency
	if nominal > done {
		nominal = done
	}
	w.Core.Advance(nominal)
	if done > nominal {
		w.Core.AdvanceIn(prof.RegionBackpressure, done)
	}
}

// Pop implements galois.Scheduler via minnow_dequeue.
func (m *MinnowScheduler) Pop(w *galois.Worker) (worklist.Task, bool) {
	e := m.byCore[w.Core.ID]
	if m.fallback != nil && m.degraded(e, w) {
		return m.fallback.Pop(&w.Ctx)
	}
	t, ready, ok := e.DequeueFrom(w.Core.ID, w.Core.Now())
	w.Core.Advance(ready)
	return t, ok
}

// Flush implements galois.Scheduler via minnow_flush.
func (m *MinnowScheduler) Flush(w *galois.Worker) {
	e := m.byCore[w.Core.ID]
	if e.Offline() {
		return // nothing resident; the software fallback needs no flush
	}
	e.Flush(w.Core.Now()) // flush runs on the engine; the core does not wait
}
