// Package galois implements the task-parallel framework the paper builds
// Minnow into: a Galois-like foreach loop where worker threads dequeue
// tasks from a scheduler, run a user operator that may enqueue more tasks,
// and terminate when no work remains anywhere.
//
// Workers are simulation actors: each Step pops one task, applies the
// operator (emitting micro-ops through the core timing model), and pushes
// any generated tasks. The scheduler is pluggable — a software worklist
// with an explicit cost model, or a Minnow engine via the accelerator
// interface.
//
// The package also implements the two §6.2.1 framework optimizations:
// socket-sharded OBIM is configured at worklist construction, and *task
// splitting* (breaking nodes with more than SplitThreshold edges into
// edge-range subtasks) lives in Worker.Push.
//
// Determinism contract: a worker's behaviour depends only on its core's
// clock and the scheduler's (deterministic) pop order; the per-task
// timeline spans a Worker emits when TL is set observe the task boundary
// and never change it.
package galois

import (
	"minnow/internal/cpu"
	"minnow/internal/obs"
	"minnow/internal/prof"
	"minnow/internal/sim"
	"minnow/internal/stats"
	"minnow/internal/uops"
	"minnow/internal/worklist"
)

// Scheduler abstracts where tasks go: a software worklist or a Minnow
// engine.
type Scheduler interface {
	// Push schedules a task on behalf of worker w (costs charged to
	// w.Core at its current time).
	Push(w *Worker, t worklist.Task)
	// Pop returns the next task for worker w. ok=false means nothing is
	// available right now; the worker will retry until global
	// termination.
	Pop(w *Worker) (t worklist.Task, ok bool)
	// Flush is called when a worker observes global termination
	// (minnow_flush / cleanup hooks). May be a no-op.
	Flush(w *Worker)
}

// Operator is a benchmark kernel's per-task function.
type Operator interface {
	// Apply processes task t on worker w: it must emit the operator's
	// micro-ops via w.TR / w.Emit* helpers and push generated tasks via
	// w.Push. The framework flushes the trace and handles accounting.
	Apply(w *Worker, t worklist.Task)
}

// Config controls a parallel foreach execution.
type Config struct {
	Threads int
	// SplitThreshold breaks tasks whose edge count exceeds it into
	// subtasks (0 disables splitting). §6.2.1 uses 10K.
	SplitThreshold int32
	// WorkBudget aborts the run (TimedOut) after this many operator
	// applications; 0 means unlimited. Used for the Fig. 3 timeout bars.
	WorkBudget int64
	// Serial elides atomics in worklist cost models (1-thread optimized
	// serial baseline).
	Serial bool
	// IdleBackoff is how long an idle worker waits before re-polling the
	// scheduler.
	IdleBackoff sim.Time
	// SharedHorizons splits each idle backoff into its own simulation
	// step so Worker.Horizon can declare it private: an idle worker's
	// wait touches only its own core, and announcing that lookahead lets
	// sim.Engine.RunParallel bound-step the waits of a *shared-machine*
	// run concurrently instead of weaving every worker step. The split
	// happens in serial and parallel execution alike (it changes the
	// step count, which RunSummary pins), so a given configuration stays
	// byte-identical across engines and worker counts.
	SharedHorizons bool
}

// Runner owns one foreach execution.
type Runner struct {
	cfg     Config
	sched   Scheduler
	op      Operator
	workers []*Worker

	outstanding int64 // pushed - completed tasks
	applied     int64
	timedOut    bool

	// Open-loop arrival state (nil / zero unless the harness arms an
	// arrival plan; closed-loop runs never touch it).
	lat      *LatencyRecorder
	injected int64 // arrival tasks credited at birth (Deposit calls)
	retired  int64 // arrival tasks whose operator application completed
}

// Worker is one thread: a core plus worklist context.
type Worker struct {
	ID     int
	Core   *cpu.Core
	Ctx    worklist.Ctx
	runner *Runner
	// Degrees lets Push split tasks; kernels set it to the graph's
	// degree function.
	Degrees func(node int32) int32
	// TL, when non-nil, receives one EvTask span per operator application
	// on Track (timeline observability; set by the harness together with
	// the core's stall hooks).
	TL    *obs.Timeline
	Track obs.TrackID
	// Deferred idle backoff (Config.SharedHorizons): when idlePending is
	// set, the worker's next step advances its core to idleUntil and
	// touches nothing else — the private stretch Horizon announces.
	idlePending bool
	idleUntil   sim.Time
	// EdgeLimit overrides the split subtask size (defaults to
	// SplitThreshold).
	pushBuf []worklist.Task
	// pending holds open-loop arrival tasks deposited by the harness's
	// injection actor (a weave step) for this worker to enqueue through
	// the normal scheduler path at the top of its next poll step (also a
	// weave step) — the deposit/drain split keeps bound-phase steps free
	// of shared state. Always empty in closed-loop runs.
	pending []worklist.Task
}

// NewRunner wires cores, scheduler, and operator together. degrees may be
// nil when task splitting is disabled.
func NewRunner(cfg Config, cores []*cpu.Core, sched Scheduler, op Operator, degrees func(int32) int32) *Runner {
	if cfg.IdleBackoff == 0 {
		cfg.IdleBackoff = 200
	}
	r := &Runner{cfg: cfg, sched: sched, op: op}
	for i := 0; i < cfg.Threads; i++ {
		w := &Worker{ID: i, Core: cores[i], runner: r, Degrees: degrees}
		w.Ctx.Core = cores[i]
		w.Ctx.Serial = cfg.Serial
		r.workers = append(r.workers, w)
	}
	return r
}

// Workers exposes the worker list (the harness registers them as actors).
func (r *Runner) Workers() []*Worker { return r.workers }

// Applied returns how many operator applications ran — the
// work-efficiency metric.
func (r *Runner) Applied() int64 { return r.applied }

// TimedOut reports whether the run exceeded its work budget.
func (r *Runner) TimedOut() bool { return r.timedOut }

// Outstanding returns queued-plus-in-flight task count (termination when
// zero).
func (r *Runner) Outstanding() int64 { return r.outstanding }

// SetLatency arms per-task latency recording for open-loop arrival
// tasks. Must be set before the first actor steps (or never).
func (r *Runner) SetLatency(l *LatencyRecorder) { r.lat = l }

// Injected returns how many arrival tasks were credited at birth.
func (r *Runner) Injected() int64 { return r.injected }

// Retired returns how many arrival tasks completed their operator
// application. A drained, untimed-out run must retire every injected
// task — the harness conservation check pins it.
func (r *Runner) Retired() int64 { return r.retired }

// Deposit credits one open-loop arrival task at birth: the task joins
// the outstanding count immediately (so workers keep polling instead of
// terminating under it) and lands in worker wi's pending buffer, to be
// enqueued through the scheduler on that worker's next poll step. Called
// only from the injection actor's weave step, which the event loop
// serializes against every worker poll step.
func (r *Runner) Deposit(wi int, t worklist.Task) {
	w := r.workers[wi%len(r.workers)]
	w.pending = append(w.pending, t)
	r.outstanding++
	r.injected++
}

// drainPending enqueues deposited arrival tasks through the normal
// scheduler path, charging enqueue costs to this worker's core. The
// core first advances to each task's birth cycle if it lags it — an
// arrival cannot be enqueued before it occurs — which also anchors the
// task's queue-wait measurement.
func (w *Worker) drainPending() {
	r := w.runner
	for _, t := range w.pending {
		if bt := sim.Time(t.Birth); w.Core.Now() < bt {
			ir, ic := w.Core.ProfRegion(prof.RegionIdle)
			w.Core.Advance(bt, stats.CatWorklist)
			w.Core.ProfRestore(ir, ic)
		}
		// Deposit already credited the task to r.outstanding; the direct
		// sched.Push (unlike Worker.Push) leaves the count alone.
		st := &w.Core.Stat
		st.EnqOps++
		start := w.Core.Now()
		pr, pc := w.Core.ProfRegion(prof.RegionEnq)
		r.sched.Push(w, t)
		w.Core.ProfRestore(pr, pc)
		st.EnqCycles += int64(w.Core.Now() - start)
	}
	w.pending = w.pending[:0]
}

// Seed distributes the initial tasks round-robin over the workers (Galois
// parallelizes initial worklist population), charging each push to the
// owning core.
func (r *Runner) Seed(tasks []worklist.Task) {
	for i, t := range tasks {
		w := r.workers[i%len(r.workers)]
		if t.EdgeHi == 0 {
			t.EdgeHi = -1
		}
		w.Push(t.Priority, t.Node)
	}
}

// TR returns the worker's trace for operator emission.
func (w *Worker) TR() *uops.Trace { return &w.Ctx.TR }

// FlushUseful runs accumulated operator micro-ops under the useful-work
// category.
func (w *Worker) FlushUseful() {
	if len(w.Ctx.TR.Ops) > 0 {
		w.Core.Run(w.Ctx.TR.Ops, stats.CatUseful)
		w.Ctx.TR.Reset()
	}
}

// Push schedules new work generated by the operator, applying task
// splitting when configured. Any pending operator micro-ops are flushed
// first so cycle categories stay honest.
func (w *Worker) Push(priority int64, node int32) {
	w.FlushUseful()
	r := w.runner
	t := worklist.Task{Priority: priority, Node: node, EdgeLo: 0, EdgeHi: -1}
	thr := r.cfg.SplitThreshold
	if thr > 0 && w.Degrees != nil {
		if d := w.Degrees(node); d > thr {
			for lo := int32(0); lo < d; lo += thr {
				hi := lo + thr
				if hi > d {
					hi = d
				}
				sub := worklist.Task{Priority: priority, Node: node, EdgeLo: lo, EdgeHi: hi}
				r.outstanding++
				st := &w.Core.Stat
				st.EnqOps++
				start := w.Core.Now()
				pr, pc := w.Core.ProfRegion(prof.RegionEnq)
				r.sched.Push(w, sub)
				w.Core.ProfRestore(pr, pc)
				st.EnqCycles += int64(w.Core.Now() - start)
			}
			return
		}
	}
	r.outstanding++
	st := &w.Core.Stat
	st.EnqOps++
	start := w.Core.Now()
	pr, pc := w.Core.ProfRegion(prof.RegionEnq)
	r.sched.Push(w, t)
	w.Core.ProfRestore(pr, pc)
	st.EnqCycles += int64(w.Core.Now() - start)
}

// Step implements sim.Actor for the worker: pop one task, run it, push
// children.
func (w *Worker) Step() (sim.Time, bool) {
	r := w.runner
	if w.idlePending {
		// Deferred idle backoff: this step was announced by Horizon as
		// private up to idleUntil, so it may run in a bound phase and must
		// touch only the worker's own core — in particular it must NOT
		// read runner state like timedOut or outstanding, which other
		// workers' weave steps mutate concurrently. The next poll step
		// observes those under full weave semantics. Note this branch is
		// checked before the timedOut fast path for exactly that reason.
		w.idlePending = false
		ir, ic := w.Core.ProfRegion(prof.RegionIdle)
		w.Core.Advance(w.idleUntil, stats.CatWorklist)
		w.Core.ProfRestore(ir, ic)
		return w.Core.Now(), false
	}
	if r.timedOut {
		return w.Core.Now(), true
	}
	if len(w.pending) > 0 {
		w.drainPending()
	}
	st := &w.Core.Stat
	start := w.Core.Now()
	pr, pc := w.Core.ProfRegion(prof.RegionDeq)
	t, ok := r.sched.Pop(w)
	w.Core.ProfRestore(pr, pc)
	if ok {
		// Only successful dequeues count toward the Fig. 11 per-op cost;
		// idle polling is charged to worklist cycles either way.
		st.DeqOps++
		st.DeqCycles += int64(w.Core.Now() - start)
		if t.Class > 0 && r.lat != nil {
			// Queue wait: birth to dequeue. Clamped at zero — a core whose
			// local clock lags the arrival instant can legally pop first.
			r.lat.Wait(t.Class-1, int64(w.Core.Now())-t.Birth)
		}
	}
	if !ok {
		if r.outstanding == 0 {
			r.sched.Flush(w)
			return w.Core.Now(), true
		}
		if r.cfg.SharedHorizons {
			// Split the backoff into its own step instead of advancing
			// here: the poll (shared worklist access) stays a weave step,
			// while the wait becomes a private step Horizon can expose as
			// bound-phase lookahead. The split is unconditional under the
			// flag — never dependent on observability wiring — so step
			// counts (and therefore RunSummary) match between plain and
			// instrumented runs of the same configuration.
			w.idlePending = true
			w.idleUntil = w.Core.Now() + r.cfg.IdleBackoff
			return w.Core.Now(), false
		}
		// Back off and re-poll: someone else still holds work.
		ir, ic := w.Core.ProfRegion(prof.RegionIdle)
		w.Core.Advance(w.Core.Now()+r.cfg.IdleBackoff, stats.CatWorklist)
		w.Core.ProfRestore(ir, ic)
		return w.Core.Now(), false
	}
	r.applied++
	st.TasksRun++
	taskStart := w.Core.Now()
	// Each operator application restarts site indexing at micro-op 0, so
	// index-flavored profiler sites aggregate across tasks.
	w.Core.ProfRegion(prof.RegionOp)
	r.op.Apply(w, t)
	w.FlushUseful()
	w.TL.Span(w.Track, obs.EvTask, taskStart, w.Core.Now(), int64(t.Node))
	if t.Class > 0 {
		// Sojourn: birth to operator completion — the arrival task's
		// end-to-end latency through the scheduling fabric.
		if r.lat != nil {
			r.lat.Sojourn(t.Class-1, int64(w.Core.Now())-t.Birth)
		}
		r.retired++
	}
	r.outstanding--
	if r.cfg.WorkBudget > 0 && r.applied >= r.cfg.WorkBudget {
		r.timedOut = true
		return w.Core.Now(), true
	}
	return w.Core.Now(), false
}

// Horizon implements sim.BoundedActor. A worker with a deferred idle
// backoff pending (Config.SharedHorizons) is private up to idleUntil: the
// pending step only advances its own core's clock and counters — unless
// the core has a timeline attached, whose buffer is shared across tracks,
// in which case the idle step must weave so the event order stays serial.
// Every other step interacts on its very first action (the scheduler pop
// touches the shared worklist, and each memory access reserves shared
// L3/NoC/DRAM state), so the worker reports HorizonAlwaysWeave.
//
// Horizon runs on pool goroutines during bound phases, so it reads only
// the worker's own fields and its core's setup-time wiring (the TL
// pointer, set once before the run) — never runner or scheduler state.
func (w *Worker) Horizon() sim.Time {
	if w.idlePending && w.Core.TL == nil {
		return w.idleUntil
	}
	return sim.HorizonAlwaysWeave
}

// SWScheduler adapts a software worklist to the Scheduler interface.
type SWScheduler struct {
	WL worklist.Worklist
}

// Push implements Scheduler.
func (s *SWScheduler) Push(w *Worker, t worklist.Task) { s.WL.Push(&w.Ctx, t) }

// Pop implements Scheduler.
func (s *SWScheduler) Pop(w *Worker) (worklist.Task, bool) { return s.WL.Pop(&w.Ctx) }

// Flush implements Scheduler.
func (s *SWScheduler) Flush(w *Worker) {}
