package tracing

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"minnow/internal/obs"
)

// DefaultFlightEvents is the flight-recorder ring capacity when the
// operator does not size it (-flightrec-events 0): enough for several
// thousand job lifecycles of context at a few dozen bytes per event.
const DefaultFlightEvents = 4096

// Event is one flight-recorder entry: a structured breadcrumb of
// service activity (submission, dispatch, checkpoint, terminal,
// journal error, dump) kept in a fixed-size ring for post-mortems.
type Event struct {
	// At is the event's wall-clock time in Unix nanoseconds.
	At int64 `json:"at"`
	// Kind names the event ("submit", "start", "checkpoint", "done",
	// "failed", "canceled", "cache-write", "journal-error", "dump", ...).
	Kind string `json:"kind"`
	// Job is the job ID the event belongs to, when any.
	Job string `json:"job,omitempty"`
	// Corr is the job's correlation ID, when any.
	Corr string `json:"corr,omitempty"`
	// Detail is a free-form annotation (an error message, a cache
	// outcome, a dump reason).
	Detail string `json:"detail,omitempty"`
	// Cycles is the simulated-cycle stamp for checkpoint events.
	Cycles int64 `json:"cycles,omitempty"`
}

// FlightRecorder is a fixed-size ring buffer of recent Events. It is
// safe for concurrent use and nil-receiver-safe (a nil recorder drops
// everything), so instrumented sites need no guard. The ring holds the
// newest capacity events; Seen counts everything ever recorded, so a
// dump states how much history the ring displaced.
type FlightRecorder struct {
	mu   sync.Mutex
	ring *obs.Ring[Event]
}

// NewFlightRecorder builds a recorder holding the newest capacity
// events (capacity <= 0 selects DefaultFlightEvents).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightEvents
	}
	return &FlightRecorder{ring: obs.NewRing[Event](capacity)}
}

// Record appends one event, displacing the oldest when the ring is
// full. A zero At is stamped with the current wall clock.
func (r *FlightRecorder) Record(ev Event) {
	if r == nil {
		return
	}
	if ev.At == 0 {
		ev.At = time.Now().UnixNano()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ring.Push(ev)
}

// Seen returns how many events were ever recorded (including ones the
// ring has since displaced).
func (r *FlightRecorder) Seen() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return uint64(r.ring.Seen())
}

// Events returns the retained events, oldest first.
func (r *FlightRecorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Items()
}

// WriteJSONL writes the retained events to w as newline-delimited JSON,
// oldest first, prefixed by one header line recording the snapshot time
// and how many events the ring displaced.
func (r *FlightRecorder) WriteJSONL(w io.Writer) error {
	events := r.Events()
	bw := bufio.NewWriter(w)
	header := struct {
		FlightRecorder string `json:"flight_recorder"`
		At             int64  `json:"at"`
		Retained       int    `json:"retained"`
		Seen           uint64 `json:"seen"`
	}{"minnowd", time.Now().UnixNano(), len(events), r.Seen()}
	hb, err := json.Marshal(header)
	if err != nil {
		return fmt.Errorf("tracing: flight recorder header: %w", err)
	}
	if _, err := bw.Write(append(hb, '\n')); err != nil {
		return fmt.Errorf("tracing: flight recorder write: %w", err)
	}
	for i := range events {
		b, err := json.Marshal(&events[i])
		if err != nil {
			return fmt.Errorf("tracing: flight recorder marshal: %w", err)
		}
		if _, err := bw.Write(append(b, '\n')); err != nil {
			return fmt.Errorf("tracing: flight recorder write: %w", err)
		}
	}
	return bw.Flush()
}

// DumpFile writes the ring to dir as
// flightrec-<reason>-<unix-nanos>.jsonl and returns the path. The
// trigger reason (panic, watchdog, sigterm) is recorded as a final
// "dump" event first, so the file is self-describing. The write is
// best-effort fsync'd: a post-mortem artifact must survive the process
// exit that usually follows it.
func (r *FlightRecorder) DumpFile(dir, reason string) (string, error) {
	if r == nil {
		return "", nil
	}
	r.Record(Event{Kind: "dump", Detail: reason})
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("tracing: flight recorder dump: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("flightrec-%s-%d.jsonl", reason, time.Now().UnixNano()))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("tracing: flight recorder dump: %w", err)
	}
	if err := r.WriteJSONL(f); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return "", fmt.Errorf("tracing: flight recorder dump: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("tracing: flight recorder dump: %w", err)
	}
	return path, nil
}
