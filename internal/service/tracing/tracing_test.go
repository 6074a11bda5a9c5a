package tracing

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistVecBuckets pins the cumulative-bucket semantics: an
// observation lands in every bucket at or above its value, _count and
// _sum track totals, and cells are addressed by their label values.
func TestHistVecBuckets(t *testing.T) {
	v := NewHistVec("test_seconds", "help.", []string{"status"}, []float64{0.1, 1, 10})
	v.Observe(0.05, "done")
	v.Observe(0.5, "done")
	v.Observe(5, "done")
	v.Observe(50, "done") // lands only in +Inf
	v.Observe(0.5, "failed")

	if got := v.Count("done"); got != 4 {
		t.Fatalf("Count(done) = %d, want 4", got)
	}
	if got := v.Count("failed"); got != 1 {
		t.Fatalf("Count(failed) = %d, want 1", got)
	}
	if got := v.Count("never"); got != 0 {
		t.Fatalf("Count(never) = %d, want 0", got)
	}

	text := v.Text()
	for _, want := range []string{
		"# HELP test_seconds help.",
		"# TYPE test_seconds histogram",
		`test_seconds_bucket{status="done",le="0.1"} 1`,
		`test_seconds_bucket{status="done",le="1"} 2`,
		`test_seconds_bucket{status="done",le="10"} 3`,
		`test_seconds_bucket{status="done",le="+Inf"} 4`,
		`test_seconds_count{status="done"} 4`,
		`test_seconds_bucket{status="failed",le="+Inf"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	// Sum is the exact total of the observed values.
	if !strings.Contains(text, fmt.Sprintf(`test_seconds_sum{status="done"} %.6f`, 55.55)) {
		t.Fatalf("exposition sum wrong:\n%s", text)
	}
}

// TestHistVecLabelless pins the brace-less exposition of a label-less
// family and that headers render even with zero observations.
func TestHistVecLabelless(t *testing.T) {
	v := NewHistVec("bare_seconds", "bare.", nil, []float64{1})
	if text := v.Text(); !strings.Contains(text, "# TYPE bare_seconds histogram") {
		t.Fatalf("empty family lost its headers:\n%s", text)
	}
	v.Observe(0.5)
	text := v.Text()
	for _, want := range []string{
		`bare_seconds_bucket{le="1"} 1`,
		`bare_seconds_bucket{le="+Inf"} 1`,
		"bare_seconds_sum 0.500000",
		"bare_seconds_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "sum{}") || strings.Contains(text, "count{}") {
		t.Fatalf("label-less family rendered empty braces:\n%s", text)
	}
}

// TestHistVecObservePanicsOnLabelMismatch pins the programming-error
// contract: wrong label arity panics instead of silently mis-filing.
func TestHistVecObservePanicsOnLabelMismatch(t *testing.T) {
	v := NewHistVec("x_seconds", "x.", []string{"a", "b"}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched label count did not panic")
		}
	}()
	v.Observe(1, "only-one")
}

// TestFlightRecorderWrap fills the ring past capacity and requires
// Events to return exactly the newest events, oldest first, with Seen
// still counting everything.
func TestFlightRecorderWrap(t *testing.T) {
	r := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		r.Record(Event{Kind: fmt.Sprintf("e%d", i)})
	}
	if r.Seen() != 10 {
		t.Fatalf("Seen = %d, want 10", r.Seen())
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, want := range []string{"e6", "e7", "e8", "e9"} {
		if evs[i].Kind != want {
			t.Fatalf("event %d = %q, want %q (got %+v)", i, evs[i].Kind, want, evs)
		}
		if evs[i].At == 0 {
			t.Fatalf("event %d missing auto-stamped At", i)
		}
	}
}

// TestFlightRecorderNilSafe requires a nil recorder to drop everything
// without panicking — instrumented sites carry no guards.
func TestFlightRecorderNilSafe(t *testing.T) {
	var r *FlightRecorder
	r.Record(Event{Kind: "x"})
	if r.Seen() != 0 || r.Events() != nil {
		t.Fatal("nil recorder retained state")
	}
	if path, err := r.DumpFile(t.TempDir(), "test"); err != nil || path != "" {
		t.Fatalf("nil DumpFile = (%q, %v), want no-op", path, err)
	}
}

// TestFlightRecorderDump writes a dump file and checks the JSONL shape:
// a self-describing header line, then one JSON object per event, ending
// with the "dump" trigger event.
func TestFlightRecorderDump(t *testing.T) {
	r := NewFlightRecorder(8)
	r.Record(Event{Kind: "submit", Job: "j-1", Corr: "c-1"})
	r.Record(Event{Kind: "done", Job: "j-1", Corr: "c-1"})
	dir := t.TempDir()
	path, err := r.DumpFile(dir, "sigterm")
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(path) != dir || !strings.HasPrefix(filepath.Base(path), "flightrec-sigterm-") {
		t.Fatalf("dump path %q", path)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var lines []map[string]any
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("non-JSON dump line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 4 { // header + submit + done + dump trigger
		t.Fatalf("dump has %d lines, want 4:\n%s", len(lines), b)
	}
	if lines[0]["flight_recorder"] != "minnowd" || lines[0]["retained"] != float64(3) {
		t.Fatalf("dump header wrong: %v", lines[0])
	}
	if lines[1]["kind"] != "submit" || lines[1]["corr"] != "c-1" {
		t.Fatalf("first event wrong: %v", lines[1])
	}
	if lines[3]["kind"] != "dump" || lines[3]["detail"] != "sigterm" {
		t.Fatalf("trigger event wrong: %v", lines[3])
	}
}

// TestFlightRecorderConcurrent hammers Record from many goroutines
// while snapshotting — run under -race in CI.
func TestFlightRecorderConcurrent(t *testing.T) {
	r := NewFlightRecorder(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Record(Event{Kind: "k"})
				r.Events()
			}
		}()
	}
	wg.Wait()
	if r.Seen() != 800 {
		t.Fatalf("Seen = %d, want 800", r.Seen())
	}
}

// TestRenderMerge renders a job trace with a simulator timeline and
// checks the merged Chrome-trace JSON: valid, two processes (service
// pid 1, sim pid 0), span durations in µs since submit, and the sim
// events re-emitted verbatim.
func TestRenderMerge(t *testing.T) {
	base := time.Unix(1000, 0)
	tr := &JobTrace{
		ID: "j-1", Corr: "c-1", Bench: "SSSP", Status: "done", Base: base,
		Spans: []Span{
			{Name: "job", Start: base, End: base.Add(3 * time.Millisecond)},
			{Name: "exec", Start: base.Add(time.Millisecond), End: base.Add(2 * time.Millisecond)},
			{Name: "tiny", Start: base.Add(time.Millisecond), End: base.Add(time.Millisecond)}, // 1µs floor
		},
		Instants: []Instant{{Name: "checkpoint", At: base.Add(1500 * time.Microsecond), Arg: 42}},
	}
	sim := []byte(`{"traceEvents":[{"ph":"X","pid":0,"tid":3,"ts":10,"dur":5,"name":"task"}]}`)
	out := tr.Render(sim)

	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		OtherData   map[string]any   `json:"otherData"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("merged trace is not JSON: %v\n%s", err, out)
	}
	if doc.OtherData["job"] != "j-1" || doc.OtherData["corr"] != "c-1" || doc.OtherData["simTimeUnit"] != "cycles" {
		t.Fatalf("otherData wrong: %v", doc.OtherData)
	}
	pids := map[float64]bool{}
	var exec, tiny, simTask map[string]any
	for _, ev := range doc.TraceEvents {
		pids[ev["pid"].(float64)] = true
		switch ev["name"] {
		case "exec":
			exec = ev
		case "tiny":
			tiny = ev
		case "task":
			simTask = ev
		}
	}
	if !pids[0] || !pids[1] {
		t.Fatalf("merged trace missing a process: pids %v", pids)
	}
	if exec == nil || exec["ts"].(float64) != 1000 || exec["dur"].(float64) != 1000 {
		t.Fatalf("exec span wrong: %v", exec)
	}
	if tiny == nil || tiny["dur"].(float64) != 1 {
		t.Fatalf("zero-length span did not get the 1µs floor: %v", tiny)
	}
	if simTask == nil || simTask["ts"].(float64) != 10 || simTask["pid"].(float64) != 0 {
		t.Fatalf("sim event not re-emitted verbatim: %v", simTask)
	}
}

// TestRenderBytes pins Render's bytes for one fixed job, without and
// with a simulator timeline: a quoted correlation ID, a span that starts
// before submission (clamped to 0), a zero-length span (the 1µs floor),
// span and instant details with escapes and non-ASCII, and the
// simulation's metadata, span and counter events re-emitted verbatim.
func TestRenderBytes(t *testing.T) {
	base := time.Unix(1000, 0)
	tr := &JobTrace{
		ID: "j-7", Corr: "c-\"7\"", Bench: "SSSP", Status: "done", Base: base,
		Spans: []Span{
			{Name: "job", Start: base, End: base.Add(3 * time.Millisecond)},
			{Name: "queue-wait", Start: base.Add(-time.Millisecond), End: base.Add(time.Millisecond)},
			{Name: "exec", Start: base.Add(time.Millisecond), End: base.Add(2 * time.Millisecond), Detail: "error: µ\tstop"},
			{Name: "tiny", Start: base.Add(time.Millisecond), End: base.Add(time.Millisecond)},
		},
		Instants: []Instant{
			{Name: "checkpoint", At: base.Add(1500 * time.Microsecond), Arg: 42},
			{Name: "cancel", At: base.Add(2500 * time.Microsecond), Detail: "client"},
		},
	}
	sim := []byte(`{"traceEvents":[
{"ph":"M","pid":0,"tid":0,"name":"thread_name","args":{"name":"core0"}},
{"ph":"X","pid":0,"tid":0,"ts":10,"dur":5,"name":"task","args":{"arg":3}},
{"ph":"C","pid":0,"ts":12,"name":"occupancy","args":{"value":7}}
],"displayTimeUnit":"ms","otherData":{"generator":"minnowsim","timeUnit":"cycles"}}
`)
	for golden, timeline := range map[string][]byte{"render.golden.json": nil, "render_sim.golden.json": sim} {
		want, err := os.ReadFile(filepath.Join("testdata", golden))
		if err != nil {
			t.Fatal(err)
		}
		if got := tr.Render(timeline); !bytes.Equal(got, want) {
			t.Errorf("%s: Render bytes differ:\n got: %s\nwant: %s", golden, got, want)
		}
	}
}

// TestRenderWithoutSim requires a service-only trace (no timeline, or
// garbage timeline bytes) to still be valid JSON with the service
// process alone.
func TestRenderWithoutSim(t *testing.T) {
	base := time.Unix(1000, 0)
	tr := &JobTrace{ID: "j-2", Base: base, Spans: []Span{{Name: "job", Start: base, End: base.Add(time.Millisecond)}}}
	for _, sim := range [][]byte{nil, []byte("not json"), []byte(`{"traceEvents":[]}`)} {
		out := tr.Render(sim)
		var doc struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(out, &doc); err != nil {
			t.Fatalf("sim=%q: invalid JSON: %v", sim, err)
		}
		for _, ev := range doc.TraceEvents {
			if ev["pid"].(float64) != 1 {
				t.Fatalf("sim=%q: unexpected non-service event %v", sim, ev)
			}
		}
	}
}
