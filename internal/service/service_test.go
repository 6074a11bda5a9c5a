package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"minnow"
)

// smallSpec is the cheapest meaningful job (~0.3s simulated): 1-thread
// Minnow SSSP. Distinct seeds give distinct cache keys.
func smallSpec(seed uint64) JobSpec {
	return JobSpec{
		Bench:  "SSSP",
		Config: ConfigSpec{Threads: 1, Minnow: true, Prefetch: true, Seed: seed},
	}
}

// newTestServer builds a server + HTTP test frontend and tears both
// down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

// submit POSTs one job and decodes the response.
func submit(t *testing.T, base string, spec JobSpec) JobView {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /jobs status = %d, body %s", resp.StatusCode, b)
	}
	var v JobView
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatalf("POST /jobs body %s: %v", b, err)
	}
	return v
}

// await polls a job until it reaches a terminal status.
func await(t *testing.T, base, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /jobs/%s status = %d, body %s", id, resp.StatusCode, b)
		}
		var v JobView
		if err := json.Unmarshal(b, &v); err != nil {
			t.Fatal(err)
		}
		switch v.Status {
		case StatusDone, StatusFailed, StatusCanceled:
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobView{}
}

// metric extracts one un-labeled metric value from Prometheus text.
func metric(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		var v float64
		if _, err := fmt.Sscanf(line, name+" %f", &v); err == nil && strings.HasPrefix(line, name+" ") {
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, text)
	return 0
}

// TestSubmitPollLifecycle drives the documented submit→poll flow end to
// end over HTTP and checks the terminal view carries the deterministic
// result.
func TestSubmitPollLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2})
	v := submit(t, ts.URL, smallSpec(42))
	if v.ID == "" || v.Key == "" {
		t.Fatalf("submission view incomplete: %+v", v)
	}
	if v.Status != StatusQueued && v.Status != StatusRunning && v.Status != StatusDone {
		t.Fatalf("fresh job status = %q", v.Status)
	}
	fin := await(t, ts.URL, v.ID)
	if fin.Status != StatusDone {
		t.Fatalf("job failed: %+v", fin)
	}
	if fin.Cached {
		t.Fatal("first-ever job reported cached")
	}
	if fin.SummaryHash == "" || len(fin.Summary) == 0 {
		t.Fatalf("done view missing summary: %+v", fin)
	}
	var sum map[string]any
	if err := json.Unmarshal(fin.Summary, &sum); err != nil {
		t.Fatalf("summary is not JSON: %v", err)
	}
	if sum["name"] != "SSSP" {
		t.Fatalf("summary names %v, want SSSP", sum["name"])
	}

	// ?full=1 adds the complete minnow.Result document.
	resp, err := http.Get(ts.URL + "/jobs/" + v.ID + "?full=1")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var fv JobView
	if err := json.Unmarshal(b, &fv); err != nil {
		t.Fatal(err)
	}
	var res minnow.Result
	if err := json.Unmarshal(fv.Result, &res); err != nil {
		t.Fatalf("full result is not a minnow.Result: %v", err)
	}
	if res.SummaryHash != fin.SummaryHash || res.WallCycles <= 0 {
		t.Fatalf("full result inconsistent: hash %s vs %s, cycles %d", res.SummaryHash, fin.SummaryHash, res.WallCycles)
	}

	// Unknown job IDs are 404; list shows the job.
	if resp, _ := http.Get(ts.URL + "/jobs/j-999"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status = %d, want 404", resp.StatusCode)
	}
	lresp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	lb, _ := io.ReadAll(lresp.Body)
	lresp.Body.Close()
	var list []JobView
	if err := json.Unmarshal(lb, &list); err != nil || len(list) != 1 || list[0].ID != v.ID {
		t.Fatalf("job list = %s (err %v)", lb, err)
	}
}

// TestValidationErrors pins the HTTP 400 contract: the
// minnow.Config.Validate message is served verbatim, unknown benchmarks,
// unknown config fields and allocation-sizing knobs past their bounds
// are refused.
func TestValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 1})
	post := func(body string) (int, string) {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(b)
	}
	code, body := post(`{"bench":"SSSP","config":{"Threads":-1}}`)
	if code != http.StatusBadRequest {
		t.Fatalf("invalid config status = %d", code)
	}
	if !strings.Contains(body, "minnow: Threads: -1 is negative (0 selects the default of 8)") {
		t.Fatalf("400 body does not carry the Validate message verbatim: %s", body)
	}
	if code, body = post(`{"bench":"NOPE","config":{}}`); code != http.StatusBadRequest || !strings.Contains(body, "unknown benchmark") {
		t.Fatalf("unknown bench = %d %s", code, body)
	}
	if code, body = post(`{"bench":"SSSP","config":{"Typo":1}}`); code != http.StatusBadRequest || !strings.Contains(body, "unknown field") {
		t.Fatalf("unknown config field = %d %s", code, body)
	}
	if code, _ = post(`{not json`); code != http.StatusBadRequest {
		t.Fatalf("bad JSON = %d", code)
	}
	// Knobs that size eager allocations are bounded before any job is
	// queued: these would ask for gigabytes ahead of the first cycle.
	if code, body = post(`{"bench":"SSSP","config":{"MemChannels":2000000000}}`); code != http.StatusBadRequest || !strings.Contains(body, "minnow: MemChannels: 2000000000 exceeds") {
		t.Fatalf("huge MemChannels = %d %s", code, body)
	}
	if code, body = post(`{"bench":"SSSP","config":{"Minnow":true,"TraceEvents":2000000000}}`); code != http.StatusBadRequest || !strings.Contains(body, "minnow: TraceEvents: 2000000000 exceeds") {
		t.Fatalf("huge TraceEvents = %d %s", code, body)
	}
}

// TestCacheHitByteIdentical is the dedup-correctness contract the CI
// gate rides on: two identical submissions trigger exactly one
// simulation, and the cached job's RunSummary JSON and SummaryHash are
// byte-identical to a cold, in-process run of the same configuration.
func TestCacheHitByteIdentical(t *testing.T) {
	s, ts := newTestServer(t, Config{Shards: 2})
	spec := smallSpec(42)

	first := await(t, ts.URL, submit(t, ts.URL, spec).ID)
	if first.Status != StatusDone || first.Cached {
		t.Fatalf("cold job: %+v", first)
	}

	second := submit(t, ts.URL, spec)
	if second.Status != StatusDone || !second.Cached {
		t.Fatalf("duplicate submission not served from cache: %+v", second)
	}
	if second.SummaryHash != first.SummaryHash {
		t.Fatalf("hash mismatch: %s != %s", second.SummaryHash, first.SummaryHash)
	}
	if !bytes.Equal(second.Summary, first.Summary) {
		t.Fatal("cached summary bytes differ from the producing run")
	}

	// Cold reference run, same resolved configuration, no server.
	cold, err := minnow.Run(spec.Bench, spec.Config.ToConfig())
	if err != nil {
		t.Fatal(err)
	}
	if cold.SummaryHash != first.SummaryHash {
		t.Fatalf("served hash %s differs from cold run %s", first.SummaryHash, cold.SummaryHash)
	}
	if !bytes.Equal(cold.SummaryJSON, first.Summary) {
		t.Fatalf("served summary bytes differ from cold run:\n%s\n%s", first.Summary, cold.SummaryJSON)
	}

	text := s.MetricsText()
	if sims := metric(t, text, "minnowd_sims_total"); sims != 1 {
		t.Fatalf("sims = %v, want exactly 1", sims)
	}
	if hits := metric(t, text, "minnowd_cache_hits_total"); hits != 1 {
		t.Fatalf("hits = %v, want 1", hits)
	}
	if ratio := metric(t, text, "minnowd_cache_hit_ratio"); ratio <= 0 {
		t.Fatalf("hit ratio = %v, want > 0", ratio)
	}
}

// TestConcurrentDuplicatesSingleflight floods the server with identical
// submissions and requires they coalesce to exactly one simulation.
func TestConcurrentDuplicatesSingleflight(t *testing.T) {
	s, ts := newTestServer(t, Config{Shards: 4})
	const n = 8
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i] = submit(t, ts.URL, smallSpec(42)).ID
		}(i)
	}
	wg.Wait()
	hash := ""
	for _, id := range ids {
		v := await(t, ts.URL, id)
		if v.Status != StatusDone {
			t.Fatalf("job %s: %+v", id, v)
		}
		if hash == "" {
			hash = v.SummaryHash
		} else if v.SummaryHash != hash {
			t.Fatalf("hash disagreement across duplicates: %s != %s", v.SummaryHash, hash)
		}
	}
	text := s.MetricsText()
	if sims := metric(t, text, "minnowd_sims_total"); sims != 1 {
		t.Fatalf("%d duplicate submissions ran %v simulations, want 1", n, sims)
	}
	if metric(t, text, "minnowd_cache_hits_total")+metric(t, text, "minnowd_cache_coalesced_total") != n-1 {
		t.Fatalf("dedup accounting off:\n%s", text)
	}
	if metric(t, text, "minnowd_cache_conflicts_total") != 0 {
		t.Fatal("summary-hash conflicts recorded")
	}
}

// TestStreamDeliversProgress subscribes to a running job's SSE feed and
// requires at least one interval sample plus the terminal done event.
func TestStreamDeliversProgress(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 1, ProgressEvery: 20000})
	v := submit(t, ts.URL, smallSpec(42))

	resp, err := http.Get(ts.URL + "/jobs/" + v.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream Content-Type = %q", ct)
	}
	samples, dones := 0, 0
	var final JobView
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "sample":
				samples++
				var ev ProgressEvent
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					t.Fatalf("sample payload %q: %v", data, err)
				}
				if ev.Cycles <= 0 || !strings.Contains(ev.Metrics, "minnow") {
					t.Fatalf("implausible sample: %+v", ev)
				}
			case "done":
				dones++
				if err := json.Unmarshal([]byte(data), &final); err != nil {
					t.Fatalf("done payload %q: %v", data, err)
				}
			}
		}
	}
	if samples == 0 {
		t.Fatal("stream delivered no interval samples")
	}
	if dones != 1 || final.Status != StatusDone || final.SummaryHash == "" {
		t.Fatalf("stream terminal event wrong: dones=%d final=%+v", dones, final)
	}

	// Streaming an already-finished job yields the done event
	// immediately (plus the replayed last sample).
	resp2, err := http.Get(ts.URL + "/jobs/" + v.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if !strings.Contains(string(b), "event: done") {
		t.Fatalf("post-completion stream missing done event:\n%s", b)
	}
}

// TestDiskCacheSurvivesRestart persists a result, restarts the service
// over the same directory, and requires the resubmission to be an
// instant byte-identical hit with zero simulations.
func TestDiskCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	spec := smallSpec(42)

	s1, err := New(Config{Shards: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	first := await(t, ts1.URL, submit(t, ts1.URL, spec).ID)
	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newTestServer(t, Config{Shards: 1, CacheDir: dir})
	second := submit(t, ts2.URL, spec)
	if second.Status != StatusDone || !second.Cached {
		t.Fatalf("restarted server missed the disk cache: %+v", second)
	}
	if second.SummaryHash != first.SummaryHash || !bytes.Equal(second.Summary, first.Summary) {
		t.Fatal("restarted cache served different bytes")
	}
	if sims := metric(t, s2.MetricsText(), "minnowd_sims_total"); sims != 0 {
		t.Fatalf("restarted server simulated %v times, want 0", sims)
	}
}

// TestArtifactUpgrade: an artifact-requesting duplicate of an
// artifact-less entry re-simulates once, upgrades the entry in place
// (hash-checked), after which both request shapes hit.
func TestArtifactUpgrade(t *testing.T) {
	s, ts := newTestServer(t, Config{Shards: 1})
	plain := smallSpec(42)
	withTL := plain
	withTL.Config.Timeline = true

	a := await(t, ts.URL, submit(t, ts.URL, plain).ID)
	b := submit(t, ts.URL, withTL)
	if b.Status == StatusDone && b.Cached {
		t.Fatal("timeline request served from a timeline-less entry")
	}
	b = await(t, ts.URL, b.ID)
	if b.SummaryHash != a.SummaryHash {
		t.Fatalf("artifact re-run changed the hash: %s != %s", b.SummaryHash, a.SummaryHash)
	}
	c := submit(t, ts.URL, withTL)
	if c.Status != StatusDone || !c.Cached {
		t.Fatalf("upgraded entry not served: %+v", c)
	}
	d := submit(t, ts.URL, plain)
	if d.Status != StatusDone || !d.Cached {
		t.Fatalf("plain request not covered by upgraded entry: %+v", d)
	}
	if sims := metric(t, s.MetricsText(), "minnowd_sims_total"); sims != 2 {
		t.Fatalf("sims = %v, want 2 (cold + artifact upgrade)", sims)
	}

	// The upgraded entry actually carries the timeline.
	e, ok := s.Cache().Get(a.Key)
	if !ok || !e.HasTimeline {
		t.Fatalf("cache entry not upgraded: ok=%v entry=%+v", ok, e)
	}
}

// TestGracefulShutdownDrains accepts several jobs, starts a drain, and
// requires every accepted job to finish while new submissions get 503.
func TestGracefulShutdownDrains(t *testing.T) {
	s, err := New(Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var ids []string
	for seed := uint64(1); seed <= 3; seed++ {
		ids = append(ids, submit(t, ts.URL, smallSpec(seed)).ID)
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()

	// Draining must refuse new work with 503 and fail health checks.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported draining")
		}
		time.Sleep(5 * time.Millisecond)
	}
	body, _ := json.Marshal(smallSpec(9))
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining POST status = %d, want 503", resp.StatusCode)
	}

	if err := <-done; err != nil {
		t.Fatalf("drain did not complete: %v", err)
	}
	for _, id := range ids {
		v, ok := s.Job(id, false)
		if !ok || v.Status != StatusDone {
			t.Fatalf("accepted job %s not drained: %+v", id, v)
		}
	}
}

// TestFailedJobReportsError drives a job into the watchdog (a tiny
// MaxCycles bound) and checks the failure surfaces on the job, is not
// cached, and counts as failed.
func TestFailedJobReportsError(t *testing.T) {
	s, ts := newTestServer(t, Config{Shards: 1})
	spec := smallSpec(42)
	spec.Config.MaxCycles = 1000 // far below the ~8M-cycle run
	v := await(t, ts.URL, submit(t, ts.URL, spec).ID)
	if v.Status != StatusFailed || v.Error == "" {
		t.Fatalf("watchdog-bound job: %+v", v)
	}
	if _, ok := s.Cache().Get(v.Key); ok {
		t.Fatal("failed run was cached")
	}
	if failed := metric(t, s.MetricsText(), `minnowd_jobs_total{status="failed"}`); failed != 1 {
		t.Fatalf("failed counter = %v, want 1", failed)
	}
}
