package sim

import (
	"testing"
)

// scriptActor executes a scripted series of (advance, done) steps and
// records when it ran.
type scriptActor struct {
	at    Time
	steps []Time // clock after each step
	i     int
	log   *[]int
	id    int
}

func (a *scriptActor) Step() (Time, bool) {
	*a.log = append(*a.log, a.id)
	if a.i >= len(a.steps) {
		return a.at, true
	}
	a.at = a.steps[a.i]
	a.i++
	return a.at, a.i >= len(a.steps)
}

func TestTimeOrdering(t *testing.T) {
	e := NewEngine()
	var log []int
	// Actor 0 steps at 0 then 100; actor 1 steps at 50.
	a0 := &scriptActor{steps: []Time{100, 200}, log: &log, id: 0}
	a1 := &scriptActor{steps: []Time{50, 60}, log: &log, id: 1}
	id0 := e.Register(a0)
	id1 := e.Register(a1)
	e.Wake(id0, 0)
	e.Wake(id1, 10)
	e.Run(0)
	// a0 runs at 0 (advances to 100), a1 at 10 (to 50), a1 at 50 (to 60,
	// done), a0 at 100 (to 200, done).
	want := []int{0, 1, 1, 0}
	if len(log) != len(want) {
		t.Fatalf("log %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log %v, want %v", log, want)
		}
	}
}

func TestTieBreakByID(t *testing.T) {
	e := NewEngine()
	var log []int
	a0 := &scriptActor{steps: []Time{5}, log: &log, id: 0}
	a1 := &scriptActor{steps: []Time{5}, log: &log, id: 1}
	// Register in reverse order: IDs still break the tie (lower first).
	id1 := e.Register(a1)
	id0 := e.Register(a0)
	e.Wake(id0, 7)
	e.Wake(id1, 7)
	e.Run(0)
	// a1 has ID 0 (registered first).
	if log[0] != 1 || log[1] != 0 {
		t.Fatalf("tie-break order %v", log)
	}
}

func TestWakeReschedulesEarlier(t *testing.T) {
	e := NewEngine()
	var log []int
	a := &scriptActor{steps: []Time{10}, log: &log, id: 0}
	id := e.Register(a)
	e.Wake(id, 100)
	e.Wake(id, 5) // earlier wins
	now, drained := e.Run(0)
	if !drained {
		t.Fatal("did not drain")
	}
	// The actor ran at the earlier wake time (5), not the later one.
	if now != 5 {
		t.Fatalf("frontier %d, want 5", now)
	}
}

func TestWakeLaterIsIgnored(t *testing.T) {
	e := NewEngine()
	var log []int
	a := &scriptActor{steps: []Time{10}, log: &log, id: 0}
	id := e.Register(a)
	e.Wake(id, 5)
	e.Wake(id, 100) // later than queued: ignored
	e.Run(0)
	if len(log) != 1 {
		t.Fatalf("steps %d, want 1", len(log))
	}
}

func TestMaxStepsBound(t *testing.T) {
	e := NewEngine()
	var log []int
	// An actor that never finishes.
	a := &infiniteActor{}
	id := e.Register(a)
	e.Wake(id, 0)
	_ = log
	_, drained := e.Run(100)
	if drained {
		t.Fatal("expected step bound, got drain")
	}
	if e.Steps() != 100 {
		t.Fatalf("steps %d, want 100", e.Steps())
	}
}

type infiniteActor struct{ t Time }

func (a *infiniteActor) Step() (Time, bool) {
	a.t++
	return a.t, false
}

func TestWakeDormantActorAfterDone(t *testing.T) {
	e := NewEngine()
	var log []int
	a := &scriptActor{steps: []Time{10}, log: &log, id: 0}
	id := e.Register(a)
	e.Wake(id, 0)
	e.Run(0)
	if len(log) != 1 {
		t.Fatalf("first run: %d steps", len(log))
	}
	// Re-arm: actor is done (i exhausted) so it steps once more and
	// retires immediately.
	e.Wake(id, 20)
	e.Run(0)
	if len(log) != 2 {
		t.Fatalf("after rearm: %d steps", len(log))
	}
}

func TestClockNeverMovesBackwards(t *testing.T) {
	e := NewEngine()
	var log []int
	// Actor tries to schedule itself in the past.
	a := &pastActor{log: &log}
	id := e.Register(a)
	e.Wake(id, 50)
	now, _ := e.Run(0)
	if now < 50 {
		t.Fatalf("frontier went backwards: %d", now)
	}
}

type pastActor struct {
	log *[]int
	n   int
}

func (a *pastActor) Step() (Time, bool) {
	a.n++
	return 1, a.n >= 3 // always asks for t=1, in the past
}

// oneShot runs once at its scheduled time and retires.
type oneShot struct {
	log *[]int
	id  int
	ran int
}

func (a *oneShot) Step() (Time, bool) {
	*a.log = append(*a.log, a.id)
	a.ran++
	return 0, true
}

// wakeAndRetire wakes target at the engine frontier on its first step and
// immediately returns done.
type wakeAndRetire struct {
	eng    *Engine
	target int
	log    *[]int
	id     int
	ran    int
}

func (a *wakeAndRetire) Step() (Time, bool) {
	*a.log = append(*a.log, a.id)
	a.ran++
	if a.ran == 1 {
		a.eng.Wake(a.target, a.eng.Now())
	}
	return 0, true
}

// TestWakeDuringStepThenDone is the heap-corruption regression for the
// done path: the stepping actor wakes a dormant lower-ID actor at the
// current time, so the pushed entry sifts over it to the heap root.
// Popping the root after Step (the old behavior) then removes the freshly
// woken actor instead of the finished one — a lost wakeup plus a
// duplicated step. The index-tracked removal must keep the woken actor
// queued.
func TestWakeDuringStepThenDone(t *testing.T) {
	e := NewEngine()
	var log []int
	b := &oneShot{log: &log, id: 0}
	idB := e.Register(b) // id 0: wins the time tie against the waker
	a := &wakeAndRetire{eng: e, log: &log, id: 1}
	idA := e.Register(a)
	a.target = idB
	c := &oneShot{log: &log, id: 2}
	idC := e.Register(c)

	e.Wake(idA, 10)
	e.Wake(idC, 100)
	if _, drained := e.Run(0); !drained {
		t.Fatal("did not drain")
	}

	want := []int{1, 0, 2} // A steps at 10, woken B at 10, C at 100
	if len(log) != len(want) {
		t.Fatalf("step log %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("step log %v, want %v", log, want)
		}
	}
	if b.ran != 1 {
		t.Fatalf("woken actor stepped %d times, want 1 (lost wakeup)", b.ran)
	}
	if a.ran != 1 {
		t.Fatalf("finished actor stepped %d times, want 1 (duplicate step)", a.ran)
	}
}

// wakeAndContinue wakes target at the engine frontier on its first step
// and reschedules itself at a later time; its second step retires it.
type wakeAndContinue struct {
	eng    *Engine
	target int
	next   Time
	log    *[]int
	id     int
	ran    int
}

func (a *wakeAndContinue) Step() (Time, bool) {
	*a.log = append(*a.log, a.id)
	a.ran++
	if a.ran == 1 {
		a.eng.Wake(a.target, a.eng.Now())
		return a.next, false
	}
	return 0, true
}

// TestWakeDuringStepThenReschedule is the heap-corruption regression for
// the reschedule path. The heap is laid out so the nested Wake sifts the
// woken entry through the stepping actor's position; fixing index 0
// afterwards (the old behavior) leaves the rescheduled actor parked above
// entries with earlier times, and later pops run actors out of time
// order. The index-tracked heap fix must restore correct ordering.
func TestWakeDuringStepThenReschedule(t *testing.T) {
	e := NewEngine()
	var log []int

	b := &oneShot{log: &log, id: 0}
	idB := e.Register(b) // dormant; woken mid-step, wins the tie on ID
	a := &wakeAndContinue{eng: e, next: 50, log: &log, id: 1}
	idA := e.Register(a)
	a.target = idB

	// Five one-shot filler actors whose wake order shapes the heap so the
	// nested push displaces the stepping actor into a violated position:
	// array [A@10 C@30 X@15 E@60 F@70 D@40 H@90] before the wake.
	times := []Time{30, 15, 60, 70, 40, 90}
	fillers := make([]*oneShot, len(times))
	for i := range times {
		fillers[i] = &oneShot{log: &log, id: 2 + i}
	}
	e.Wake(idA, 10)
	for i, at := range times {
		id := e.Register(fillers[i])
		e.Wake(id, at)
	}

	if _, drained := e.Run(0); !drained {
		t.Fatal("did not drain")
	}

	// Sorted by (time, id): A@10, B@10... A steps first (B is woken during
	// A's step), then B@10, X@15, C@30, D@40, A@50, E@60, F@70, H@90.
	want := []int{1, 0, 3, 2, 6, 1, 4, 5, 7}
	if len(log) != len(want) {
		t.Fatalf("step log %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("step log %v, want %v (actors ran out of time order)", log, want)
		}
	}
	for i, f := range fillers {
		if f.ran != 1 {
			t.Fatalf("filler %d stepped %d times, want 1", i, f.ran)
		}
	}
}

func TestIdle(t *testing.T) {
	e := NewEngine()
	if !e.Idle() {
		t.Fatal("new engine not idle")
	}
	var log []int
	a := &scriptActor{steps: []Time{1}, log: &log, id: 0}
	id := e.Register(a)
	e.Wake(id, 0)
	if e.Idle() {
		t.Fatal("armed engine reported idle")
	}
	e.Run(0)
	if !e.Idle() {
		t.Fatal("drained engine not idle")
	}
}
