package sim

import "testing"

// spinActor reschedules itself forever, one cycle at a time — the
// livelock shape the watchdog exists to catch.
type spinActor struct{ at Time }

func (a *spinActor) Step() (Time, bool) {
	a.at++
	return a.at, false
}

func TestWatchdogHalts(t *testing.T) {
	e := NewEngine()
	id := e.Register(&spinActor{})
	e.Wake(id, 0)

	polls := 0
	e.SetWatchdog(10, func() bool {
		polls++
		return polls >= 3 // trip on the third poll
	})
	now, drained := e.Run(0)
	if drained {
		t.Fatalf("watchdog halt reported as drain")
	}
	if !e.Halted() {
		t.Fatalf("Halted() false after watchdog trip")
	}
	if polls != 3 {
		t.Fatalf("watchdog polled %d times, want 3", polls)
	}
	// Three polls at every-10-steps → exactly 30 steps executed.
	if e.Steps() != 30 {
		t.Fatalf("steps %d at halt, want 30", e.Steps())
	}
	if now != e.Now() {
		t.Fatalf("Run returned now=%d, engine Now=%d", now, e.Now())
	}
}

func TestWatchdogBenign(t *testing.T) {
	e := NewEngine()
	var log []int
	a := &scriptActor{steps: []Time{5, 9}, log: &log, id: 0}
	e.Wake(e.Register(a), 0)

	polls := 0
	e.SetWatchdog(1, func() bool { polls++; return false })
	now, drained := e.Run(0)
	if !drained || e.Halted() {
		t.Fatalf("benign watchdog perturbed the run: drained=%v halted=%v", drained, e.Halted())
	}
	if now != 5 {
		t.Fatalf("final time %d, want 5", now)
	}
	// The first poll fires once `every` steps have executed, so an
	// n-step run with every=1 polls n-1 times.
	if polls != int(e.Steps())-1 {
		t.Fatalf("polled %d times over %d steps with every=1", polls, e.Steps())
	}
}

func TestWatchdogDisable(t *testing.T) {
	e := NewEngine()
	var log []int
	a := &scriptActor{steps: []Time{1, 2}, log: &log, id: 0}
	e.Wake(e.Register(a), 0)

	e.SetWatchdog(1, func() bool { return true })
	e.SetWatchdog(0, nil) // disarm before running
	if _, drained := e.Run(0); !drained {
		t.Fatalf("disarmed watchdog still halted the run")
	}
}

func TestHaltedClearsOnNextRun(t *testing.T) {
	e := NewEngine()
	id := e.Register(&spinActor{})
	e.Wake(id, 0)
	e.SetWatchdog(1, func() bool { return true })
	e.Run(0)
	if !e.Halted() {
		t.Fatalf("expected halt")
	}
	e.SetWatchdog(0, nil)
	e.Run(5) // bounded resume
	if e.Halted() {
		t.Fatalf("Halted() sticky across Run")
	}
}

func TestQueuedDeterministicOrder(t *testing.T) {
	e := NewEngine()
	var log []int
	// Three actors woken out of order, two tied at t=7.
	a0 := e.Register(&scriptActor{steps: []Time{20}, log: &log, id: 0})
	a1 := e.Register(&scriptActor{steps: []Time{21}, log: &log, id: 1})
	a2 := e.Register(&scriptActor{steps: []Time{22}, log: &log, id: 2})
	e.Wake(a2, 7)
	e.Wake(a0, 7)
	e.Wake(a1, 3)

	q := e.Queued()
	if len(q) != 3 {
		t.Fatalf("queued %d actors, want 3", len(q))
	}
	want := []QueuedActor{{ID: a1, At: 3}, {ID: a0, At: 7}, {ID: a2, At: 7}}
	for i, qa := range q {
		if qa != want[i] {
			t.Fatalf("Queued()[%d] = %+v, want %+v (full: %+v)", i, qa, want[i], q)
		}
	}
}

// TestCancelBenignIsInert pins the determinism contract a host's cancel
// arm relies on: a never-firing watchdog must not perturb the step
// sequence, final time, or step count relative to a run with no hook.
func TestCancelBenignIsInert(t *testing.T) {
	run := func(withHook bool) (Time, int64, []int) {
		e := NewEngine()
		var log []int
		a := &scriptActor{steps: []Time{5, 9, 14}, log: &log, id: 0}
		b := &scriptActor{steps: []Time{3, 9}, log: &log, id: 1}
		e.Wake(e.Register(a), 0)
		e.Wake(e.Register(b), 0)
		if withHook {
			e.SetWatchdog(1, func() bool { return false })
		}
		now, drained := e.Run(0)
		if !drained || e.Halted() {
			t.Fatalf("benign hook perturbed the run: drained=%v halted=%v", drained, e.Halted())
		}
		return now, e.Steps(), log
	}
	nowA, stepsA, logA := run(false)
	nowB, stepsB, logB := run(true)
	if nowA != nowB || stepsA != stepsB {
		t.Fatalf("hook changed the run: now %d vs %d, steps %d vs %d", nowA, nowB, stepsA, stepsB)
	}
	if len(logA) != len(logB) {
		t.Fatalf("hook changed the step log length: %d vs %d", len(logA), len(logB))
	}
	for i := range logA {
		if logA[i] != logB[i] {
			t.Fatalf("hook changed step order at %d: %v vs %v", i, logA, logB)
		}
	}
}

// TestCancelStopsRunParallel checks the hook also stops the bound/weave
// engine, at every worker count.
func TestCancelStopsRunParallel(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		e := NewEngine()
		id := e.Register(&spinActor{})
		e.Wake(id, 0)
		polls := 0
		e.SetWatchdog(10, func() bool {
			polls++
			return polls >= 2
		})
		_, drained := e.RunParallel(0, 0, workers)
		if drained {
			t.Fatalf("workers=%d: stop reported as drain", workers)
		}
		if !e.Halted() {
			t.Fatalf("workers=%d: Halted() false after the hook fired", workers)
		}
	}
}
