// Package tracing is minnowd's service-level observation plane: per-job
// lifecycle spans rendered as Chrome-trace/Perfetto JSON (mergeable with
// the simulator's own timeline so one file shows queue wait, shard
// dispatch, execution, and cache write next to the run's task spans),
// Prometheus latency histograms (live p50/p95/p99 over queue wait,
// execution, sojourn, and cache-write time), and a fixed-size flight
// recorder of recent structured events that is dumped to disk on panic,
// watchdog halt, or SIGTERM for post-mortem analysis.
//
// Observe-only contract: like every observability layer in this repo,
// the package only reads wall clocks and appends to private buffers. It
// never touches a simulation's configuration, so enabling it cannot
// change a RunSummary hash, a cache key, or what the journal replays —
// the service test suite pins exactly that (TestTracingInert).
//
// Time bases: service spans are wall-clock and rendered in microseconds
// since the job's submission; the simulator timeline is deterministic
// and rendered in simulated cycles (1 cycle = 1 µs of trace time). The
// merge keeps them as two separate Perfetto processes — "minnowd
// service" (pid 1) and the simulation (pid 0) — so both axes stay
// honest in one file.
package tracing

import (
	"encoding/json"
	"strconv"
	"time"

	"minnow/internal/obs"
)

// Span is one closed service-level lifecycle interval of a job
// (queue-wait, exec, cache-write, or the enclosing job span).
type Span struct {
	// Name labels the interval ("job", "queue-wait", "exec", ...).
	Name string
	// Start is the interval's wall-clock begin.
	Start time.Time
	// End is the interval's wall-clock end; End <= Start renders with a
	// one-microsecond floor so the span stays visible.
	End time.Time
	// Detail is an optional free-form annotation rendered into the
	// event's args (an error message, a cache outcome).
	Detail string
}

// Instant is one service-level point event (a checkpoint, a cancel
// request, a coalesce).
type Instant struct {
	// Name labels the event.
	Name string
	// At is the event's wall-clock time.
	At time.Time
	// Arg is an optional numeric annotation (checkpoint cycles).
	Arg int64
	// Detail is an optional free-form annotation.
	Detail string
}

// JobTrace is one job's service-level lifecycle, ready to render: the
// span tree plus point events, all timed against Base (the submission
// instant, which becomes trace time zero).
type JobTrace struct {
	// ID is the server-assigned job identifier.
	ID string
	// Corr is the job's correlation ID.
	Corr string
	// Bench is the benchmark name.
	Bench string
	// Status is the job's status at render time.
	Status string
	// Base is trace time zero: the job's submission instant.
	Base time.Time
	// Spans are the closed lifecycle intervals, in emission order.
	Spans []Span
	// Instants are the point events, in emission order.
	Instants []Instant
}

// simTrace is the subset of the simulator's Perfetto export the merge
// needs: the raw event list, re-emitted verbatim.
type simTrace struct {
	TraceEvents []json.RawMessage `json:"traceEvents"`
}

// Render produces one Chrome-trace/Perfetto JSON file from the service
// spans and, when simTimeline is a non-empty simulator Perfetto export
// (minnow.Result.TimelineJSON), the simulation's own events — merged as
// two processes so ui.perfetto.dev shows the service lifecycle directly
// above the run's task timeline. An unparseable simTimeline is skipped,
// never fatal: the service spans alone are still a valid trace.
func (t *JobTrace) Render(simTimeline []byte) []byte {
	w := obs.NewTraceWriter()
	w.ProcessName(1, "minnowd service (ts = wall µs since submit)")
	w.ThreadName(1, 0, "job "+t.ID)
	for i := range t.Spans {
		sp := &t.Spans[i]
		ts := t.us(sp.Start)
		dur := t.us(sp.End) - ts
		if dur <= 0 {
			dur = 1
		}
		w.Span(1, 0, ts, dur, sp.Name, `{"corr":`+strconv.Quote(t.Corr)+detail(sp.Detail)+"}")
	}
	for i := range t.Instants {
		in := &t.Instants[i]
		w.Instant(1, 0, t.us(in.At), in.Name, `{"arg":`+strconv.FormatInt(in.Arg, 10)+detail(in.Detail)+"}")
	}

	if len(simTimeline) > 0 {
		var sim simTrace
		if err := json.Unmarshal(simTimeline, &sim); err == nil && len(sim.TraceEvents) > 0 {
			w.ProcessName(0, "simulation (ts = cycles)")
			for _, ev := range sim.TraceEvents {
				w.Event(string(ev))
			}
		}
	}
	return w.Close("generator", "minnowd", "job", t.ID, "corr", t.Corr, "bench", t.Bench,
		"status", t.Status, "serviceTimeUnit", "wall-us", "simTimeUnit", "cycles")
}

// detail renders an optional free-form annotation as a trailing args
// field, or nothing when it is empty.
func detail(d string) string {
	if d == "" {
		return ""
	}
	return `,"detail":` + strconv.Quote(d)
}

// us converts a wall-clock instant to trace microseconds since Base,
// clamped at zero so a stamp that (clock-skew) precedes the submission
// still renders inside the trace.
func (t *JobTrace) us(at time.Time) int64 {
	if at.Before(t.Base) {
		return 0
	}
	return at.Sub(t.Base).Microseconds()
}
