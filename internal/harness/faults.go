package harness

import (
	"fmt"
	"strings"

	"minnow/internal/fault"
	"minnow/internal/stats"
	"minnow/internal/worklist"
)

// watchdogEvery is how many actor steps pass between watchdog polls. The
// poll is read-only, so the interval trades detection latency against
// nothing but the (tiny) polling overhead.
const watchdogEvery = 1 << 16

// progressStrikes is how many consecutive polls may observe zero new
// operator applications before the run is declared livelocked. Idle
// tails between applications are orders of magnitude shorter than
// progressStrikes*watchdogEvery steps, so false positives would require
// a genuinely wedged scheduler.
const progressStrikes = 64

// poll is the event loop's one step-count hook, installed every
// watchdogEvery steps. It checks, in order, the cycle budget (always
// on: MaxCycles defaults high enough that healthy runs never trip it),
// the no-progress arm — operator applications stagnant across
// progressStrikes consecutive polls, engaged only for fault or
// invariant runs, where injected stalls make livelock a real outcome —
// and the cooperative Config.Cancel hook, and records which one stopped
// the run. The poll only reads simulator state, so arming it never
// perturbs a run it does not stop.
func (m *machine) poll() bool {
	if now := m.eng.Now(); int64(now) > m.o.MaxCycles {
		m.reason = fmt.Sprintf("cycle budget exceeded: t=%d > max %d", now, m.o.MaxCycles)
		return true
	}
	if m.stalled() {
		return true
	}
	m.canceled = m.o.Cancel != nil && m.o.Cancel()
	return m.canceled
}

// stalled is the no-progress arm. Open-loop runs add a wrinkle: a
// sparse arrival plan ("trickle") can leave the machine legitimately
// quiet between a drained frontier and the next scheduled injection,
// which is not livelock — the injection actor still holds queued work.
// Pending future arrivals therefore reset the strikes; the MaxCycles arm
// remains the backstop against a plan whose tail never materializes.
func (m *machine) stalled() bool {
	if !m.o.Invariants && m.inj == nil {
		return false
	}
	a := m.runner.Applied()
	if a != m.lastApplied {
		m.lastApplied, m.strikes = a, 0
		return false
	}
	if m.arr != nil && m.arr.Pending() > 0 {
		m.strikes = 0
		return false
	}
	m.strikes++
	if m.strikes < progressStrikes {
		return false
	}
	m.reason = fmt.Sprintf("no progress: stuck at %d operator applications for %d steps",
		a, int64(progressStrikes)*watchdogEvery)
	return true
}

// snapshot assembles the diagnostic dump embedded in a watchdog error:
// per-actor clocks, worklist occupancy, per-engine state, and the
// memory system's outstanding-transaction counters.
func (m *machine) snapshot() *fault.Snapshot {
	eng, msys := m.eng, m.msys
	s := &fault.Snapshot{
		Reason:       m.reason,
		Now:          int64(eng.Now()),
		Steps:        eng.Steps(),
		Applied:      m.runner.Applied(),
		Outstanding:  m.runner.Outstanding(),
		Occupancy:    m.occupancy(),
		NoCStallCyc:  msys.Mesh.StallCyc,
		DRAMStallCyc: msys.DRAM.StallCyc,
		DRAMBusy:     int(msys.DRAM.BusyChannels(eng.Now())),
	}
	for _, q := range eng.Queued() {
		s.Actors = append(s.Actors, fault.ActorState{ID: q.ID, At: int64(q.At)})
	}
	for _, e := range m.engines {
		s.Engines = append(s.Engines, fault.EngineState{
			Core:    e.CoreID,
			Clock:   int64(e.Clock()),
			Queued:  e.QueuedTasks(),
			Offline: e.Offline(),
		})
	}
	if m.inj != nil {
		fs := m.inj.Stats
		s.Faults = &fs
	}
	return s
}

// checkInvariants audits post-run sanity: task conservation (nothing
// queued or outstanding after a clean drain, each Conserved worklist
// balances its push/pop ledger, and every injected arrival was both
// delivered and retired), per-engine credit-pool accounting
// cross-checked against the L2s' actual marked lines, and the memory
// system's directory/counter invariants. It returns one message per
// violation, empty when clean.
func (m *machine) checkInvariants(drained bool) []string {
	runner, swWL, arr := m.runner, m.swWL, m.arr
	var v []string
	if drained && !runner.TimedOut() {
		if n := runner.Outstanding(); n != 0 {
			v = append(v, fmt.Sprintf("task conservation: run drained with %d tasks outstanding", n))
		}
		if occ := m.occupancy(); occ != 0 {
			v = append(v, fmt.Sprintf("task conservation: run drained with %d tasks still queued", occ))
		}
		if c, ok := swWL.(worklist.Conserved); ok {
			if pushed, popped := c.Pushed(), c.Popped(); pushed != popped+int64(swWL.Len()) {
				v = append(v, fmt.Sprintf("task conservation: %s pushed %d != popped %d + queued %d",
					swWL.Name(), pushed, popped, swWL.Len()))
			}
		}
		if arr != nil {
			// Arrival conservation: every scheduled event must have been
			// delivered (credited at birth) and every credited task must
			// have completed its operator application — a dropped injected
			// task fails here deterministically.
			if d, tot := arr.Delivered(), arr.Total(); d != tot {
				v = append(v, fmt.Sprintf("arrival conservation: delivered %d of %d scheduled arrivals", d, tot))
			}
			if inj, cred := arr.Delivered(), runner.Injected(); inj != cred {
				v = append(v, fmt.Sprintf("arrival conservation: injector delivered %d but runner credited %d", inj, cred))
			}
			if inj, ret := runner.Injected(), runner.Retired(); inj != ret {
				v = append(v, fmt.Sprintf("arrival conservation: %d tasks injected but only %d retired", inj, ret))
			}
		}
	}
	// Hardware prefetchers mark L2 lines outside the engine's credit
	// protocol, so the credit ledger is only checkable without them.
	if m.o.HWPrefetcher == "" {
		for i, e := range m.engines {
			if err := e.CheckCredits(); err != nil {
				v = append(v, fmt.Sprintf("engine %d: %v", i, err))
			}
			if e.Offline() {
				continue
			}
			if mk, lines := e.MarkedOutstanding(), m.msys.PrefetchMarked(e.Cores()); mk != lines {
				v = append(v, fmt.Sprintf("engine %d: credit ledger says %d marked lines but its L2s hold %d",
					i, mk, lines))
			}
		}
	}
	return append(v, m.msys.CheckInvariants()...)
}

// chaosBenches and chaosPresets span the chaos sweep: every benchmark
// runs fault-free and under each canonical fault plan.
var chaosBenches = []string{"SSSP", "BFS", "CC"}
var chaosPresets = []string{"", "transient", "offline", "chaos"}

// ChaosCell is one benchmark x fault-plan outcome of the chaos sweep.
type ChaosCell struct {
	// Bench is the benchmark name.
	Bench string
	// Preset is the fault-plan preset ("" = fault-free baseline).
	Preset string
	// Hash is the run's deterministic summary fingerprint.
	Hash string
	// Faults holds the injected-fault counters (nil for the baseline).
	Faults *stats.FaultStats
	// Err is non-nil when the cell failed: a run error, an invariant
	// violation, cross-run nondeterminism, or a plan that injected
	// nothing.
	Err error
}

// ChaosReport aggregates the chaos sweep's cells.
type ChaosReport struct {
	// Cells holds one entry per benchmark x preset, in sweep order.
	Cells []ChaosCell
}

// Failed returns the cells that did not pass.
func (r *ChaosReport) Failed() []ChaosCell {
	var out []ChaosCell
	for _, c := range r.Cells {
		if c.Err != nil {
			out = append(out, c)
		}
	}
	return out
}

// String renders the report as an aligned text table.
func (r *ChaosReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-10s %-6s %-14s %s\n", "bench", "plan", "state", "hash", "detail")
	for _, c := range r.Cells {
		preset := c.Preset
		if preset == "" {
			preset = "(none)"
		}
		state, detail := "ok", ""
		if c.Err != nil {
			state, detail = "FAIL", c.Err.Error()
		} else if f := c.Faults; f != nil {
			detail = fmt.Sprintf("stalls=%d noc=%d dram=%d spill=%d credit-lost=%d offline=%d rescued=%d",
				f.EngineStalls, f.NoCDelays, f.DRAMRetries, f.SpillRetries,
				f.CreditsLost, f.EnginesOffline, f.Rescued)
		}
		hash := c.Hash
		if len(hash) > 12 {
			hash = hash[:12]
		}
		fmt.Fprintf(&b, "%-6s %-10s %-6s %-14s %s\n", c.Bench, preset, state, hash, detail)
	}
	return strings.TrimRight(b.String(), "\n")
}

// Err returns an aggregate error naming every failed cell, nil when the
// whole sweep passed.
func (r *ChaosReport) Err() error {
	failed := r.Failed()
	if len(failed) == 0 {
		return nil
	}
	names := make([]string, len(failed))
	for i, c := range failed {
		names[i] = fmt.Sprintf("%s/%s", c.Bench, c.Preset)
	}
	return fmt.Errorf("chaos sweep: %d/%d cells failed: %s", len(failed), len(r.Cells), strings.Join(names, ", "))
}

// Chaos runs the fault-injection sweep: each benchmark under the Minnow
// scheduler, fault-free and under every canonical fault preset, with the
// invariant checker armed and every cell executed twice to prove
// seed-reproducibility. A cell passes when both runs complete, verify
// against the kernel's reference answer (so faulty runs converge to the
// same final answers as fault-free ones), compare equal under the
// determinism checker's compareRuns, and — for fault plans — actually
// injected something. Per-cell failures are collected, not fatal, so one
// wedged cell cannot hide the rest.
func Chaos(base Options, workers int) *ChaosReport {
	var jobs []Job
	rep := &ChaosReport{}
	for _, bench := range chaosBenches {
		for _, preset := range chaosPresets {
			o := base
			o.Scheduler = "minnow"
			o.Prefetch = true
			o.Invariants = true
			o.Faults = preset
			rep.Cells = append(rep.Cells, ChaosCell{Bench: bench, Preset: preset})
			// Each cell runs twice: identical hashes are the
			// reproducibility proof.
			jobs = append(jobs, Job{Bench: bench, Opts: o}, Job{Bench: bench, Opts: o})
		}
	}
	results := RunJobs(jobs, workers)
	for i := range rep.Cells {
		c := &rep.Cells[i]
		a, b := results[2*i], results[2*i+1]
		switch {
		case a.Err != nil:
			c.Err = a.Err
		case b.Err != nil:
			c.Err = fmt.Errorf("repeat run: %w", b.Err)
		default:
			rep := compareRuns(a.Job, a.Run, b.Run)
			c.Hash, c.Faults = rep.Hash, a.Run.Faults
			if !rep.OK() {
				c.Err = fmt.Errorf("nondeterministic under plan %q: %s", c.Preset, strings.Join(rep.Mismatches, "; "))
			}
		}
		if c.Err != nil || c.Preset == "" {
			continue
		}
		f := c.Faults
		switch {
		case f == nil:
			c.Err = fmt.Errorf("plan %q recorded no fault stats", c.Preset)
		case (c.Preset == "offline" || c.Preset == "chaos") && f.EnginesOffline == 0:
			c.Err = fmt.Errorf("plan %q never took an engine offline (run shorter than the at= trigger?)", c.Preset)
		case c.Preset != "offline" && f.EngineStalls+f.NoCDelays+f.DRAMRetries+f.SpillRetries+f.CreditsLost == 0:
			c.Err = fmt.Errorf("plan %q injected nothing", c.Preset)
		}
	}
	return rep
}
