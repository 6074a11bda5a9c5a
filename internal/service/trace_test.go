package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestTracingInert is the observe-only contract pin: enabling every
// tracing feature (trace persistence, flight recorder, correlation IDs)
// changes neither the RunSummary hash and bytes, nor the cache key, nor
// what a journal replay reconstructs, compared to a server with tracing
// off. It also pins that the correlation ID is excluded from the cache
// key: differently-correlated identical submissions share one entry.
func TestTracingInert(t *testing.T) {
	spec := smallSpec(42)
	spec.Corr = "corr-A"

	// Tracing on: trace dir, tiny flight ring, client correlation ID.
	_, tsOn := newTestServer(t, Config{Shards: 1, TraceDir: t.TempDir(), FlightRecEvents: 64})
	on := await(t, tsOn.URL, submit(t, tsOn.URL, spec).ID)

	// Tracing off: zero-valued observability config, no correlation ID.
	plain := smallSpec(42)
	_, tsOff := newTestServer(t, Config{Shards: 1})
	off := await(t, tsOff.URL, submit(t, tsOff.URL, plain).ID)

	if on.Status != StatusDone || off.Status != StatusDone {
		t.Fatalf("jobs did not finish: on=%+v off=%+v", on, off)
	}
	if on.SummaryHash != off.SummaryHash {
		t.Fatalf("tracing changed the summary hash: %s != %s", on.SummaryHash, off.SummaryHash)
	}
	if !bytes.Equal(on.Summary, off.Summary) {
		t.Fatalf("tracing changed the summary bytes:\n%s\n%s", on.Summary, off.Summary)
	}
	if on.Key != off.Key {
		t.Fatalf("tracing (or the correlation ID) changed the cache key: %s != %s", on.Key, off.Key)
	}
	if on.Corr != "corr-A" {
		t.Fatalf("correlation ID not echoed: %+v", on)
	}

	// Corr is excluded from the key: a differently-correlated identical
	// submission is a born-done cache hit.
	dup := smallSpec(42)
	dup.Corr = "corr-B"
	hit := submit(t, tsOn.URL, dup)
	if hit.Status != StatusDone || !hit.Cached {
		t.Fatalf("differently-correlated duplicate missed the cache: %+v", hit)
	}
	if hit.Corr != "corr-B" {
		t.Fatalf("duplicate lost its own correlation ID: %+v", hit)
	}
}

// TestTracingInertJournalReplay pins the recovery side of the contract:
// a journal written by a tracing-enabled server replays to the same
// job state under a tracing-disabled server and vice versa — the span
// stamps piggybacking on journal records never change what replay
// reconstructs.
func TestTracingInertJournalReplay(t *testing.T) {
	dir := t.TempDir()
	jp := filepath.Join(dir, "journal.jsonl")

	s1, ts1 := newTestServer(t, Config{Shards: 1, JournalPath: jp, TraceDir: filepath.Join(dir, "traces"), FlightRecEvents: 32})
	spec := smallSpec(42)
	spec.Corr = "replay-corr"
	fin := await(t, ts1.URL, submit(t, ts1.URL, spec).ID)
	if fin.Status != StatusDone {
		t.Fatalf("job: %+v", fin)
	}
	ts1.Close()
	stop(t, s1)
	journalBytes, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}

	// Replay the identical journal under both tracing configs; the
	// reconstructed job views must be byte-identical. Each replay
	// compacts (rewrites) the journal, so restore the original between
	// runs to keep the inputs identical.
	views := make([][]byte, 2)
	for i, cfg := range []Config{
		{Shards: 1, JournalPath: jp},
		{Shards: 1, JournalPath: jp, TraceDir: filepath.Join(dir, "traces2"), FlightRecEvents: 32},
	} {
		if err := os.WriteFile(jp, journalBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(s.Jobs())
		if err != nil {
			t.Fatal(err)
		}
		views[i] = b
		rctx, rcancel := context.WithTimeout(context.Background(), time.Minute)
		s.Shutdown(rctx)
		rcancel()
	}
	if !bytes.Equal(views[0], views[1]) {
		t.Fatalf("tracing changed what replay reconstructs:\noff: %s\non:  %s", views[0], views[1])
	}

	// The replayed view still carries the correlation ID and the
	// crash-spanning lifecycle stamps from the journal.
	var replayed []JobView
	if err := json.Unmarshal(views[0], &replayed); err != nil || len(replayed) != 1 {
		t.Fatalf("replayed views: %s (err %v)", views[0], err)
	}
	v := replayed[0]
	if v.Corr != "replay-corr" || !v.Recovered || v.Status != StatusDone {
		t.Fatalf("replayed job lost tracing state: %+v", v)
	}
	if v.QueuedAtNS <= 0 || v.StartedAtNS < v.QueuedAtNS || v.DoneAtNS < v.StartedAtNS {
		t.Fatalf("replayed lifecycle stamps disordered: %+v", v)
	}
}

// TestMergedTraceEndpoint runs a Timeline-requesting job and requires
// GET /jobs/{id}/trace to serve one valid Chrome-trace file holding
// both the service lifecycle spans (pid 1: job, queue-wait, exec) and
// the simulator's own timeline events (pid 0) — the artifact CI uploads
// and ui.perfetto.dev loads.
func TestMergedTraceEndpoint(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{Shards: 1, ProgressEvery: 20000, TraceDir: dir})
	spec := smallSpec(42)
	spec.Config.Timeline = true
	v := await(t, ts.URL, submit(t, ts.URL, spec).ID)
	if v.Status != StatusDone {
		t.Fatalf("job: %+v", v)
	}

	resp, b := rawHTTP(t, http.MethodGet, ts.URL+"/jobs/"+v.ID+"/trace", "", "")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("GET trace = %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}

	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		OtherData   map[string]any   `json:"otherData"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if doc.OtherData["job"] != v.ID || doc.OtherData["status"] != StatusDone {
		t.Fatalf("otherData wrong: %v", doc.OtherData)
	}
	spans := map[string]bool{}
	simEvents := 0
	for _, ev := range doc.TraceEvents {
		switch ev["pid"].(float64) {
		case 1:
			if ev["ph"] == "X" {
				spans[ev["name"].(string)] = true
			}
		case 0:
			if ev["ph"] != "M" {
				simEvents++
			}
		}
	}
	for _, want := range []string{"job", "queue-wait", "exec", "cache-write"} {
		if !spans[want] {
			t.Fatalf("service span %q missing (have %v)", want, spans)
		}
	}
	if simEvents == 0 {
		t.Fatal("merged trace carries no simulator timeline events")
	}

	// The same bytes were persisted to the trace dir.
	persisted, err := os.ReadFile(filepath.Join(dir, v.ID+".trace.json"))
	if err != nil {
		t.Fatalf("trace not persisted: %v", err)
	}
	var pdoc struct {
		OtherData map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(persisted, &pdoc); err != nil || pdoc.OtherData["job"] != v.ID {
		t.Fatalf("persisted trace wrong: %v %v", pdoc.OtherData, err)
	}

	// Unknown jobs are 404.
	if resp, _ := rawHTTP(t, http.MethodGet, ts.URL+"/jobs/j-999/trace", "", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace = %d, want 404", resp.StatusCode)
	}
}

// TestFlightRecorderEndpoint checks GET /debug/flightrec: JSONL with a
// header line, then the job's lifecycle breadcrumbs (submit, start,
// done) in order, each carrying the correlation ID.
func TestFlightRecorderEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 1, FlightRecEvents: 128})
	spec := smallSpec(42)
	spec.Corr = "flight-corr"
	v := await(t, ts.URL, submit(t, ts.URL, spec).ID)
	if v.Status != StatusDone {
		t.Fatalf("job: %+v", v)
	}

	resp, b := rawHTTP(t, http.MethodGet, ts.URL+"/debug/flightrec", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/flightrec = %d", resp.StatusCode)
	}
	var kinds []string
	first := true
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("non-JSON flightrec line %q: %v", sc.Text(), err)
		}
		if first {
			first = false
			if m["flight_recorder"] != "minnowd" {
				t.Fatalf("missing header line: %v", m)
			}
			continue
		}
		if m["job"] == v.ID {
			kinds = append(kinds, m["kind"].(string))
			if m["corr"] != "flight-corr" {
				t.Fatalf("event lost the correlation ID: %v", m)
			}
		}
	}
	want := []string{"submit", "start", "cache-write", StatusDone}
	got := strings.Join(kinds, ",")
	for _, k := range want {
		if !strings.Contains(got, k) {
			t.Fatalf("flight recorder missing %q for %s: [%s]", k, v.ID, got)
		}
	}
}

// TestLifecycleStampsOrdered pins the JobView timestamp contract the
// load generator validates client-side: queued <= started <= done, all
// positive, for fresh runs, cache hits, and coalesced followers.
func TestLifecycleStampsOrdered(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 1})
	cold := await(t, ts.URL, submit(t, ts.URL, smallSpec(42)).ID)
	if cold.QueuedAtNS <= 0 || cold.StartedAtNS < cold.QueuedAtNS || cold.DoneAtNS < cold.StartedAtNS {
		t.Fatalf("cold run stamps disordered: %+v", cold)
	}
	hit := submit(t, ts.URL, smallSpec(42))
	if hit.Status != StatusDone || !hit.Cached {
		t.Fatalf("duplicate not a hit: %+v", hit)
	}
	// Born-done: never dispatched, so StartedAtNS stays 0.
	if hit.QueuedAtNS <= 0 || hit.StartedAtNS != 0 || hit.DoneAtNS < hit.QueuedAtNS {
		t.Fatalf("cache-hit stamps wrong: %+v", hit)
	}
}

// TestCorrelationIDHeader pins the X-Correlation-ID path of POST /jobs:
// the header is the job's corr when the body has none, the body's corr
// wins when both are set, and every client ID is sanitized (control
// characters dropped, capped at 128 bytes).
func TestCorrelationIDHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 1})
	for _, c := range []struct{ body, header, want string }{
		{"", "hdr-only", "hdr-only"},
		{"", "h\tdr", "hdr"},
		{"body-wins", "hdr-loses", "body-wins"},
		{"a\x00b\nc\x7f" + strings.Repeat("x", 200), "", "abc" + strings.Repeat("x", 125)},
	} {
		spec := smallSpec(42)
		spec.Corr = c.body
		body, _ := json.Marshal(spec)
		_, b := rawHTTP(t, http.MethodPost, ts.URL+"/jobs", string(body), c.header)
		var v JobView
		if err := json.Unmarshal(b, &v); err != nil || v.Corr != c.want {
			t.Fatalf("body corr %q, header %q: got corr %q (%v), want %q", c.body, c.header, v.Corr, err, c.want)
		}
	}
}
