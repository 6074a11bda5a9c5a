package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// spanLog keeps the benchmark-side spans of a traced run in memory until
// the workload ends: set-up builds, passes and kernel runs, service
// restarts and every submission. Spans of one submission carry its
// correlation ID. A nil *spanLog records nothing, so a run without
// -trace-dir pays one nil check per span.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

type span struct {
	name, cat  string
	tid        int
	corr       string
	start, end time.Time
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// add records one span on track tid.
func (l *spanLog) add(name, cat string, tid int, corr string, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{name, cat, tid, corr, start, end})
	l.mu.Unlock()
}

// write renders the spans as Chrome-trace JSON (load it at
// ui.perfetto.dev).
func (l *spanLog) write(path string) error {
	type event struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	l.mu.Lock()
	events := make([]event, 0, len(l.spans))
	for _, s := range l.spans {
		e := event{Name: s.name, Cat: s.cat, Ph: "X", Pid: 1, Tid: s.tid,
			Ts:  float64(s.start.Sub(l.t0).Nanoseconds()) / 1e3,
			Dur: float64(s.end.Sub(s.start).Nanoseconds()) / 1e3}
		if s.corr != "" {
			e.Args = map[string]string{"corr": s.corr}
		}
		events = append(events, e)
	}
	l.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
