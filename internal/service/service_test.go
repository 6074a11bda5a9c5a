package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
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

// submit POSTs one job through the Client.
func submit(t *testing.T, base string, spec JobSpec) JobView {
	t.Helper()
	v, err := NewClient(base, nil).Submit(context.Background(), spec, "")
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// await follows a job's event stream through the Client until the job
// is terminal.
func await(t *testing.T, base, id string) JobView {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	v, err := NewClient(base, nil).Wait(ctx, id, nil)
	if err != nil || !Terminal(v.Status) {
		t.Fatalf("job %s did not finish: %+v, %v", id, v, err)
	}
	return v
}

// waitRunning polls until a shard has dequeued job id and is running it.
// A job that ends before anyone saw it run fails the test.
func waitRunning(t *testing.T, s *Server, id string) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for {
		cur, ok := s.Job(id, false)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if cur.Status == StatusRunning {
			return
		}
		if Terminal(cur.Status) {
			t.Fatalf("job %s finished before it was seen running: %+v", id, cur)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started running", id)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// metric reads one series from Prometheus text: an exact
// name{labels}, or a bare name summed over every label set it carries.
func metric(t *testing.T, text, name string) float64 {
	t.Helper()
	sum, found := 0.0, false
	for _, line := range strings.Split(text, "\n") {
		series, val, _ := strings.Cut(line, " ")
		if base, _, _ := strings.Cut(series, "{"); series == name || base == name {
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				t.Fatalf("metric line %q: %v", line, err)
			}
			sum, found = sum+v, true
		}
	}
	if !found {
		t.Fatalf("metric %s not found in:\n%s", name, text)
	}
	return sum
}

// rawHTTP sends one raw request, with a non-empty corr as
// X-Correlation-ID, for the tests whose subject is the wire itself. It
// returns the closed response and its body.
func rawHTTP(t *testing.T, method, url, body, corr string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if corr != "" {
		req.Header.Set("X-Correlation-ID", corr)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, b
}

// startDrain begins s.Shutdown in the background and returns, with the
// channel its result arrives on, once GET /healthz answers 503.
func startDrain(t *testing.T, s *Server, base string) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if resp, _ := rawHTTP(t, http.MethodGet, base+"/healthz", "", ""); resp.StatusCode == http.StatusServiceUnavailable {
			return done
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported draining")
		}
	}
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
	c := NewClient(ts.URL, nil)
	fv, err := c.Get(context.Background(), v.ID, true)
	if err != nil {
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
	var re *RequestError
	if _, err := c.Get(context.Background(), "j-999", false); !errors.As(err, &re) || re.Code != http.StatusNotFound {
		t.Fatalf("unknown job: %v, want 404", err)
	}
	_, lb := rawHTTP(t, http.MethodGet, ts.URL+"/jobs", "", "")
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
		resp, b := rawHTTP(t, http.MethodPost, ts.URL+"/jobs", body, "")
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

// TestOversizedBodyRefused pins the POST /jobs body bound: a body over
// 1 MiB gets 413, and nothing is queued or journaled.
func TestOversizedBodyRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	s, ts := newTestServer(t, Config{Shards: 1, JournalPath: path})
	body := `{"bench":"SSSP","config":{"Threads":1},"corr":"` + strings.Repeat("x", 1<<20) + `"}`
	resp, b := rawHTTP(t, http.MethodPost, ts.URL+"/jobs", body, "")
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d %s, want 413", resp.StatusCode, b)
	}
	if n := len(s.Jobs()); n != 0 {
		t.Fatalf("oversized body registered %d jobs", n)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
		t.Fatalf("oversized body journaled: %v bytes (%v)", fi.Size(), err)
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

	c := NewClient(ts.URL, nil)
	samples := 0
	final, err := c.Wait(context.Background(), v.ID, func(ev ProgressEvent) {
		samples++
		if ev.Cycles <= 0 || !strings.Contains(ev.Metrics, "minnow") {
			t.Fatalf("implausible sample: %+v", ev)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Fatal("stream delivered no interval samples")
	}
	if final.Status != StatusDone || final.SummaryHash == "" {
		t.Fatalf("stream terminal event wrong: final=%+v", final)
	}

	// Streaming an already-finished job yields the done event
	// immediately (plus the replayed last sample).
	if _, err := c.Wait(context.Background(), v.ID, nil); err != nil {
		t.Fatalf("post-completion stream: %v", err)
	}
}

// TestDiskCacheSurvivesRestart persists a result, restarts the service
// over the same directory, and requires the resubmission to be an
// instant byte-identical hit with zero simulations.
func TestDiskCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	spec := smallSpec(42)

	s1, ts1 := newTestServer(t, Config{Shards: 1, CacheDir: dir})
	first := await(t, ts1.URL, submit(t, ts1.URL, spec).ID)
	ts1.Close()
	stop(t, s1)

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
	s, ts := newTestServer(t, Config{Shards: 1})
	var ids []string
	for seed := uint64(1); seed <= 3; seed++ {
		ids = append(ids, submit(t, ts.URL, smallSpec(seed)).ID)
	}

	// Draining must refuse new work with 503 and fail health checks.
	done := startDrain(t, s, ts.URL)
	var re *RequestError
	if _, err := NewClient(ts.URL, nil).Submit(context.Background(), smallSpec(9), ""); !errors.As(err, &re) || re.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining POST: %v, want 503", err)
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

// TestSojournTotals pins minnowd_sojourn_seconds as the one sojourn
// sink: its _count summed over labels is the number of terminal jobs,
// and its _sum summed over labels is their total submit→terminal time.
func TestSojournTotals(t *testing.T) {
	s, ts := newTestServer(t, Config{Shards: 1})
	failing := smallSpec(43)
	failing.Config.MaxCycles = 1000
	views := []JobView{
		await(t, ts.URL, submit(t, ts.URL, smallSpec(42)).ID), // miss
		submit(t, ts.URL, smallSpec(42)),                      // hit
		await(t, ts.URL, submit(t, ts.URL, failing).ID),       // failed
	}
	want := 0.0
	for _, v := range views {
		want += float64(v.DoneAtNS-v.QueuedAtNS) / 1e9
	}
	text := s.MetricsText()
	if count, jobs := metric(t, text, "minnowd_sojourn_seconds_count"), metric(t, text, "minnowd_jobs_total"); count != 3 || jobs != 3 {
		t.Fatalf("sojourn count %v, terminal jobs %v, want 3", count, jobs)
	}
	if sum := metric(t, text, "minnowd_sojourn_seconds_sum"); math.Abs(sum-want) > 1e-3 {
		t.Fatalf("sojourn sum %.6fs, want the views' total %.6fs", sum, want)
	}
}
