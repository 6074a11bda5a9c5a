package obs

import (
	"slices"
	"strings"
	"testing"
)

func TestRingRetainsTail(t *testing.T) {
	r := NewRing[int](3)
	if got := r.Items(); len(got) != 0 {
		t.Fatalf("empty ring holds %v", got)
	}
	for i := 0; i < 5; i++ {
		r.Push(i)
	}
	got := r.Items()
	if len(got) != 3 || got[0] != 2 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("ring order wrong: %v", got)
	}
	if r.Seen() != 5 {
		t.Fatalf("seen %d", r.Seen())
	}
	z := NewRing[int](0)
	z.Push(6)
	z.Push(7)
	if got := z.Items(); len(got) != 1 || got[0] != 7 {
		t.Fatalf("non-positive capacity must keep the newest value, got %v", got)
	}
}

func TestNilEventTailIsNoop(t *testing.T) {
	var tail *EventTail
	tail.push(EngineEvent{Kind: EvSpill}) // must not panic
	if tail.Seen() != 0 || tail.Events() != nil {
		t.Fatal("nil tail not inert")
	}
	if tail.String() != "" {
		t.Fatal("nil tail rendered text")
	}
	var o *EngineObserver
	o.Emit(EvFill, 1, 2, 3, 4) // must not panic
}

func TestEventTailCounts(t *testing.T) {
	tail := NewEventTail(2)
	o := &EngineObserver{Tail: tail}
	o.Emit(EvFill, 0, 10, 0, 48)
	o.Emit(EvFill, 10, 20, 0, 16)
	o.Emit(EvSpill, 20, 30, 0, 8)
	// Counts cover the whole stream, not just the two retained events.
	s := tail.String()
	if !strings.HasSuffix(s, "per-kind counts: spill=1 fill=2\n") || tail.Seen() != 3 {
		t.Fatalf("counts wrong (seen %d):\n%s", tail.Seen(), s)
	}
	if n := len(tail.Events()); n != 2 {
		t.Fatalf("retained %d events, want 2", n)
	}
}

func TestEventTailRendering(t *testing.T) {
	tail := NewEventTail(4)
	o := &EngineObserver{Engine: 2, Tail: tail}
	o.Emit(EvPrefetch, 1234, 1300, 3, 7)
	s := tail.String()
	for _, frag := range []string{"prefetch", "eng2", "core3", "1234", "per-kind counts: prefetch=1"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("render missing %q:\n%s", frag, s)
		}
	}
}

func TestEventTailKindLabels(t *testing.T) {
	// Every engine kind renders under its own label, both on its event
	// line and in the per-kind counts.
	tail := NewEventTail(int(EvFlush) + 1)
	o := &EngineObserver{Tail: tail}
	for k := EvEnqueue; k <= EvFlush; k++ {
		o.Emit(k, 0, 0, 0, 0)
	}
	evs := tail.Events()
	if len(evs) != int(EvFlush)+1 {
		t.Fatalf("retained %d events, want %d", len(evs), int(EvFlush)+1)
	}
	s := tail.String()
	seen := map[string]bool{}
	for i, ev := range evs {
		label := ev.Kind.String()
		if ev.Kind != Kind(i) || label == "" || strings.HasPrefix(label, "kind(") {
			t.Fatalf("event %d has kind %d labelled %q", i, ev.Kind, label)
		}
		if seen[label] {
			t.Fatalf("duplicate engine kind label %q", label)
		}
		seen[label] = true
		if !strings.Contains(ev.String(), label) {
			t.Fatalf("event line %q lacks label %q", ev.String(), label)
		}
		if !strings.Contains(s, " "+label+"=1") {
			t.Fatalf("per-kind counts lack %s=1:\n%s", label, s)
		}
	}
}

func TestEngineObserverRouting(t *testing.T) {
	// One Emit per event: every kind reaches the tail, stamped at its end
	// (a prefetch at its issue), while only threadlet spans and prefetch
	// stall instants reach the engine's timeline track.
	tl := NewTimeline()
	tl.AddTrack("core 0")
	tail := NewEventTail(16)
	o := &EngineObserver{Engine: 0, Tail: tail, TL: tl, Track: tl.AddTrack("engine 0")}
	o.Emit(EvEnqueue, 100, 110, 0, 5)
	o.Emit(EvSpill, 110, 150, 0, 2)
	o.Emit(EvPrefetch, 150, 190, 0, 3)
	o.Emit(EvCreditStall, 190, 190, 0, 0)
	o.Emit(EvFlush, 200, 200, 0, 0)

	var stamps []int64
	for _, ev := range tail.Events() {
		stamps = append(stamps, int64(ev.At))
	}
	if want := []int64{110, 150, 150, 190, 200}; !slices.Equal(stamps, want) {
		t.Fatalf("tail stamps %v, want %v", stamps, want)
	}
	if tl.Len() != 3 || tl.Count(EvSpill) != 1 || tl.Count(EvPrefetch) != 1 || tl.Count(EvCreditStall) != 1 {
		t.Fatalf("timeline got %d events (spill %d, prefetch %d, credit-stall %d)",
			tl.Len(), tl.Count(EvSpill), tl.Count(EvPrefetch), tl.Count(EvCreditStall))
	}
	if tl.Count(EvEnqueue) != 0 || tl.Count(EvFlush) != 0 {
		t.Fatal("queue-operation kinds leaked onto the timeline")
	}
}
