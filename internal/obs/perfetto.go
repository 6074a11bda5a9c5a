package obs

import (
	"strconv"
	"strings"
)

// Perfetto renders the timeline as Chrome trace-event JSON, the format
// ui.perfetto.dev (and chrome://tracing) opens directly. One simulated
// cycle maps to one microsecond of trace time, so Perfetto's "1 ms" is
// 1000 cycles; the mapping is recorded under otherData.timeUnit.
//
// Layout: every AddTrack track becomes a named thread of process 0
// (cores, engines, the memory system); spans are complete events ("X"),
// point events are thread-scoped instants ("i"), and Counter samples
// become counter tracks ("C") that Perfetto plots as stepped graphs.
//
// The output is deterministic: events appear in collection order, which
// the single-goroutine-per-run simulator fixes for a given configuration
// and seed, and all numbers are formatted with strconv.
func (t *Timeline) Perfetto() []byte {
	w := NewTraceWriter()
	if t != nil {
		for i, name := range t.names {
			w.ThreadName(0, i, name)
		}
		for i := range t.events {
			ev := &t.events[i]
			args := "{\"arg\":" + strconv.FormatInt(ev.arg, 10) + "}"
			switch ev.phase {
			case phSpan:
				w.Span(0, int(ev.track), int64(ev.start), int64(ev.end-ev.start), ev.kind.String(), args)
			case phInstant:
				w.Instant(0, int(ev.track), int64(ev.start), ev.kind.String(), args)
			case phCounter:
				w.Counter(0, int64(ev.start), ev.kind.String(), ev.arg)
			}
		}
	}
	return w.Close("generator", "minnowsim", "timeUnit", "cycles")
}

// TraceWriter writes one Chrome trace-event JSON document: the
// {"traceEvents":[ envelope, one event per line, and the closing
// displayTimeUnit/otherData object. Timeline.Perfetto and minnowd's job
// traces both write through it, so the envelope and the event shapes
// are spelled once. Strings are quoted with strconv, numbers formatted
// with strconv, so equal inputs give equal bytes.
type TraceWriter struct {
	b strings.Builder
	n int
}

// NewTraceWriter opens a document.
func NewTraceWriter() *TraceWriter {
	w := &TraceWriter{}
	w.b.WriteString("{\"traceEvents\":[")
	return w
}

// Event appends one already-rendered event object verbatim.
func (w *TraceWriter) Event(ev string) {
	if w.n > 0 {
		w.b.WriteByte(',')
	}
	w.n++
	w.b.WriteString("\n")
	w.b.WriteString(ev)
}

// ProcessName names process pid.
func (w *TraceWriter) ProcessName(pid int, name string) {
	w.Event("{\"ph\":\"M\",\"pid\":" + strconv.Itoa(pid) +
		",\"name\":\"process_name\",\"args\":{\"name\":" + strconv.Quote(name) + "}}")
}

// ThreadName names thread tid of process pid.
func (w *TraceWriter) ThreadName(pid, tid int, name string) {
	w.Event("{\"ph\":\"M\",\"pid\":" + strconv.Itoa(pid) + ",\"tid\":" + strconv.Itoa(tid) +
		",\"name\":\"thread_name\",\"args\":{\"name\":" + strconv.Quote(name) + "}}")
}

// Span appends a complete event ("X") lasting dur from ts; args is the
// event's args object, already rendered as JSON.
func (w *TraceWriter) Span(pid, tid int, ts, dur int64, name, args string) {
	w.Event("{\"ph\":\"X\",\"pid\":" + strconv.Itoa(pid) + ",\"tid\":" + strconv.Itoa(tid) +
		",\"ts\":" + strconv.FormatInt(ts, 10) + ",\"dur\":" + strconv.FormatInt(dur, 10) +
		",\"name\":" + strconv.Quote(name) + ",\"args\":" + args + "}")
}

// Instant appends a thread-scoped instant event ("i") at ts; args is as
// for Span.
func (w *TraceWriter) Instant(pid, tid int, ts int64, name, args string) {
	w.Event("{\"ph\":\"i\",\"pid\":" + strconv.Itoa(pid) + ",\"tid\":" + strconv.Itoa(tid) +
		",\"ts\":" + strconv.FormatInt(ts, 10) + ",\"s\":\"t\",\"name\":" + strconv.Quote(name) +
		",\"args\":" + args + "}")
}

// Counter appends a sample ("C") of the counter track name at ts.
func (w *TraceWriter) Counter(pid int, ts int64, name string, value int64) {
	w.Event("{\"ph\":\"C\",\"pid\":" + strconv.Itoa(pid) + ",\"ts\":" + strconv.FormatInt(ts, 10) +
		",\"name\":" + strconv.Quote(name) + ",\"args\":{\"value\":" + strconv.FormatInt(value, 10) + "}}")
}

// Close ends the document and returns it. otherData lists the
// otherData object's string fields as key, value pairs, in order.
func (w *TraceWriter) Close(otherData ...string) []byte {
	w.b.WriteString("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{")
	for i := 0; i+1 < len(otherData); i += 2 {
		if i > 0 {
			w.b.WriteByte(',')
		}
		w.b.WriteString(strconv.Quote(otherData[i]) + ":" + strconv.Quote(otherData[i+1]))
	}
	w.b.WriteString("}}\n")
	return []byte(w.b.String())
}
