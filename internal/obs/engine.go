package obs

import (
	"fmt"
	"strings"

	"minnow/internal/sim"
)

// EngineEvent is one Minnow-engine event as the tail log keeps it.
type EngineEvent struct {
	At     sim.Time // simulated stamp (see EngineObserver.Emit)
	Engine int32    // engine attach-point core ID
	Core   int32    // served core (differs from Engine when sharing)
	Kind   Kind     // one of the engine kinds, EvEnqueue..EvFlush
	Arg    int64    // kind-specific: node ID, batch size, load count...
}

// String renders one event line.
func (e EngineEvent) String() string {
	return fmt.Sprintf("%12d  eng%-3d core%-3d %-14s %d", e.At, e.Engine, e.Core, e.Kind, e.Arg)
}

// EventTail is the bounded engine event log behind minnowsim -trace: the
// most recent events of every engine in a run, plus per-kind counts over
// the whole stream. A nil *EventTail discards everything.
//
// The tail's contents depend on its depth (it keeps a suffix of the
// stream), which is why RunSummary excludes it.
type EventTail struct {
	ring *Ring[EngineEvent]
	byK  [NumKinds]int64
}

// NewEventTail returns a tail keeping the last n events.
func NewEventTail(n int) *EventTail {
	return &EventTail{ring: NewRing[EngineEvent](n)}
}

func (t *EventTail) push(ev EngineEvent) {
	if t == nil {
		return
	}
	t.ring.Push(ev)
	t.byK[ev.Kind]++
}

// Seen returns how many events were emitted, overwritten ones included.
func (t *EventTail) Seen() int64 {
	if t == nil {
		return 0
	}
	return t.ring.Seen()
}

// Events returns the retained events oldest-first.
func (t *EventTail) Events() []EngineEvent {
	if t == nil {
		return nil
	}
	return t.ring.Items()
}

// String renders the retained tail plus a per-kind summary.
func (t *EventTail) String() string {
	if t == nil {
		return ""
	}
	evs := t.Events()
	var sb strings.Builder
	fmt.Fprintf(&sb, "engine trace: %d events total, showing last %d\n", t.Seen(), len(evs))
	fmt.Fprintf(&sb, "%12s  %-6s %-7s %-14s %s\n", "cycle", "engine", "core", "event", "arg")
	for _, ev := range evs {
		sb.WriteString(ev.String())
		sb.WriteByte('\n')
	}
	sb.WriteString("per-kind counts:")
	for k := Kind(0); k < NumKinds; k++ {
		if t.byK[k] > 0 {
			fmt.Fprintf(&sb, " %s=%d", k, t.byK[k])
		}
	}
	sb.WriteByte('\n')
	return sb.String()
}

// EngineObserver is one Minnow engine's single event sink. The engine
// makes one Emit call per event; the observer routes it to the run's
// EventTail (every kind) and to the engine's Timeline track (threadlet
// spans and prefetch-stall instants). Either destination may be nil, and
// a nil *EngineObserver costs the engine one branch per event site.
type EngineObserver struct {
	Engine int        // the engine's attach-point core ID
	Tail   *EventTail // the run's shared engine event tail, or nil
	TL     *Timeline  // the run's timeline, or nil
	Track  TrackID    // the engine's track on TL
}

// Emit records one engine event of kind spanning [start, end) on behalf
// of the served core. The tail stamps the event at end — when the
// operation completes — except EvPrefetch, which it stamps at start, when
// the threadlet issues its loads. The timeline receives EvSpill, EvFill,
// and EvPrefetch as spans and EvCreditStall and EvStreamDrop as instants
// at start; the queue-operation kinds reach the tail only.
func (o *EngineObserver) Emit(kind Kind, start, end sim.Time, core int, arg int64) {
	if o != nil {
		o.emit(kind, start, end, core, arg)
	}
}

// emit is kept out of line so Emit inlines to a single nil check at every
// engine event site.
func (o *EngineObserver) emit(kind Kind, start, end sim.Time, core int, arg int64) {
	at := end
	if kind == EvPrefetch {
		at = start
	}
	o.Tail.push(EngineEvent{At: at, Engine: int32(o.Engine), Core: int32(core), Kind: kind, Arg: arg})
	switch kind {
	case EvSpill, EvFill, EvPrefetch:
		o.TL.Span(o.Track, kind, start, end, arg)
	case EvCreditStall, EvStreamDrop:
		o.TL.Instant(o.Track, kind, start, arg)
	}
}
