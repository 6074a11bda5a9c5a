package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"minnow"
	"minnow/internal/service/journal"
)

// cancelJob cancels a job through the Client and returns the HTTP
// status and the view (when 200).
func cancelJob(t *testing.T, base, id string) (int, JobView) {
	t.Helper()
	v, err := NewClient(base, nil).Cancel(context.Background(), id)
	var re *RequestError
	switch {
	case err == nil:
		return http.StatusOK, v
	case errors.As(err, &re):
		return re.Code, JobView{}
	}
	t.Fatal(err)
	return 0, JobView{}
}

// slowSpec is a job long enough (several seconds) to reliably cancel
// mid-run; distinct seeds give distinct keys.
func slowSpec(seed uint64) JobSpec {
	return JobSpec{
		Bench:  "SSSP",
		Config: ConfigSpec{Threads: 2, Minnow: true, Prefetch: true, Scale: 2, Seed: seed},
	}
}

// TestCancelQueuedJob pins the immediate-cancel path: a queued job is
// terminal before DELETE returns, never simulates, and cancellation is
// idempotent; unknown IDs are 404.
func TestCancelQueuedJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Shards: 1})
	blocker := submit(t, ts.URL, slowSpec(1)) // occupies the only shard
	victim := submit(t, ts.URL, smallSpec(2))

	code, v := cancelJob(t, ts.URL, victim.ID)
	if code != http.StatusOK || v.Status != StatusCanceled {
		t.Fatalf("DELETE queued job = %d %+v, want 200 canceled", code, v)
	}
	// Idempotent: a second DELETE returns the terminal view unchanged.
	if code, v = cancelJob(t, ts.URL, victim.ID); code != http.StatusOK || v.Status != StatusCanceled {
		t.Fatalf("second DELETE = %d %+v", code, v)
	}
	if code, _ := cancelJob(t, ts.URL, "j-999"); code != http.StatusNotFound {
		t.Fatalf("DELETE unknown job = %d, want 404", code)
	}

	if fin := await(t, ts.URL, blocker.ID); fin.Status != StatusDone {
		t.Fatalf("blocker perturbed by cancel: %+v", fin)
	}
	text := s.MetricsText()
	if sims := metric(t, text, "minnowd_sims_total"); sims != 1 {
		t.Fatalf("canceled queued job simulated: sims = %v, want 1", sims)
	}
	if c := metric(t, text, `minnowd_jobs_total{status="canceled"}`); c != 1 {
		t.Fatalf("canceled counter = %v, want 1", c)
	}
}

// TestCancelRunningJob pins the cooperative mid-run cancel: DELETE on a
// running job stops the simulation within one cancel-poll interval,
// the terminal status is canceled, and nothing is written to the cache.
func TestCancelRunningJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Shards: 1})
	v := submit(t, ts.URL, slowSpec(1))

	waitRunning(t, s, v.ID)
	if code, _ := cancelJob(t, ts.URL, v.ID); code != http.StatusOK {
		t.Fatalf("DELETE running job = %d", code)
	}
	fin := await(t, ts.URL, v.ID)
	if fin.Status != StatusCanceled {
		t.Fatalf("canceled running job ended %q, want canceled", fin.Status)
	}
	if _, ok := s.Cache().Get(v.Key); ok {
		t.Fatal("canceled run wrote a cache entry")
	}
	if c := metric(t, s.MetricsText(), `minnowd_jobs_total{status="canceled"}`); c != 1 {
		t.Fatalf("canceled counter = %v, want 1", c)
	}
}

// TestCancelIsPerSubmission pins singleflight cancellation semantics:
// canceling a coalesced follower detaches only it, and canceling a
// queued primary hands the flight to the oldest follower — the
// surviving submissions still get the result.
func TestCancelIsPerSubmission(t *testing.T) {
	s, ts := newTestServer(t, Config{Shards: 1})
	blocker := submit(t, ts.URL, slowSpec(1)) // holds the shard so the rest queue
	prim := submit(t, ts.URL, smallSpec(2))
	fol1 := submit(t, ts.URL, smallSpec(2))
	fol2 := submit(t, ts.URL, smallSpec(2))
	if !fol1.Cached || !fol2.Cached {
		t.Fatalf("duplicates did not coalesce: %+v %+v", fol1, fol2)
	}

	// Follower detach: fol1 cancels alone, the flight survives.
	if _, v := cancelJob(t, ts.URL, fol1.ID); v.Status != StatusCanceled {
		t.Fatalf("follower cancel: %+v", v)
	}
	// Carrier hand-off: canceling the queued primary promotes fol2.
	if _, v := cancelJob(t, ts.URL, prim.ID); v.Status != StatusCanceled {
		t.Fatalf("primary cancel: %+v", v)
	}
	fin := await(t, ts.URL, fol2.ID)
	if fin.Status != StatusDone || fin.SummaryHash == "" {
		t.Fatalf("surviving follower did not get the result: %+v", fin)
	}
	if v := await(t, ts.URL, prim.ID); v.Status != StatusCanceled {
		t.Fatalf("canceled primary resurrected: %+v", v)
	}
	if v := await(t, ts.URL, fol1.ID); v.Status != StatusCanceled {
		t.Fatalf("canceled follower resurrected: %+v", v)
	}
	await(t, ts.URL, blocker.ID)
	// The flight ran exactly once for the survivor (plus the blocker).
	if sims := metric(t, s.MetricsText(), "minnowd_sims_total"); sims != 2 {
		t.Fatalf("sims = %v, want 2 (blocker + surviving flight)", sims)
	}
}

// TestQueuedFlightKeepsOldestLivePlace pins the queue place of a
// flight whose oldest submission is canceled: the flight moves to the
// place of its oldest live submission. Flight A holds a1 (priority 5)
// and its duplicate a2 (priority 0), flight B holds b1 (priority 1);
// once a1 is canceled, B dispatches before A.
func TestQueuedFlightKeepsOldestLivePlace(t *testing.T) {
	s, ts := newTestServer(t, Config{Shards: 1})
	blocker := submit(t, ts.URL, slowSpec(1)) // holds the shard so the rest queue
	waitRunning(t, s, blocker.ID)
	a, b := smallSpec(2), smallSpec(3)
	a.Priority, b.Priority = 5, 1
	a1 := submit(t, ts.URL, a)
	a.Priority = 0
	a2 := submit(t, ts.URL, a)
	b1 := submit(t, ts.URL, b)
	if !a2.Coalesced {
		t.Fatalf("duplicate did not coalesce: %+v", a2)
	}
	if code, v := cancelJob(t, ts.URL, a1.ID); code != http.StatusOK || v.Status != StatusCanceled {
		t.Fatalf("DELETE %s = %d %+v", a1.ID, code, v)
	}
	fa, fb := await(t, ts.URL, a2.ID), await(t, ts.URL, b1.ID)
	if fa.Status != StatusDone || fb.Status != StatusDone {
		t.Fatalf("flights did not finish: a2=%+v b1=%+v", fa, fb)
	}
	if fb.StartedAtNS >= fa.StartedAtNS {
		t.Fatalf("flight B (priority 1) started at %d, not before flight A (priority 0 once a1 left) at %d",
			fb.StartedAtNS, fa.StartedAtNS)
	}
	await(t, ts.URL, blocker.ID)
}

// TestRetryAfterHeader pins the backpressure contract: 429 (queue
// full) and 503 (draining) both carry a Retry-After header.
func TestRetryAfterHeader(t *testing.T) {
	s, ts := newTestServer(t, Config{Shards: 1, QueueLimit: 1})
	running := submit(t, ts.URL, slowSpec(1))
	waitRunning(t, s, running.ID)
	submit(t, ts.URL, smallSpec(2)) // fills the 1-slot queue
	body, _ := json.Marshal(smallSpec(3))
	resp, _ := rawHTTP(t, http.MethodPost, ts.URL+"/jobs", string(body), "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit POST = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("429 Retry-After = %q, want \"1\"", ra)
	}

	done := startDrain(t, s, ts.URL)
	resp2, _ := rawHTTP(t, http.MethodPost, ts.URL+"/jobs", string(body), "")
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining POST = %d, want 503", resp2.StatusCode)
	}
	if ra := resp2.Header.Get("Retry-After"); ra != "5" {
		t.Fatalf("503 Retry-After = %q, want \"5\"", ra)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// copyTree copies the journal + cache state into a fresh directory —
// the in-process stand-in for what a kill -9 leaves on disk. It runs
// while the source server is still appending, so it also exercises the
// torn-tail tolerance of replay.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCrashRecovery is the durability contract end to end: jobs
// accepted by a server that "crashes" (its on-disk state snapshotted
// mid-run, exactly what kill -9 leaves behind) are fully reconstructed
// by a restart — completed jobs serve from the cache, never-completed
// jobs re-run to the byte-identical SummaryHash an uninterrupted run
// produces, canceled jobs stay canceled, and a second restart changes
// nothing (replay is idempotent).
func TestCrashRecovery(t *testing.T) {
	dir1 := t.TempDir()
	cfg1 := Config{
		Shards:        1,
		CacheDir:      filepath.Join(dir1, "cache"),
		JournalPath:   filepath.Join(dir1, "journal.jsonl"),
		ProgressEvery: 20000,
	}
	s1, err := New(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	// Jobs: one finishes pre-crash, one is canceled pre-crash, the rest
	// are lost mid-queue/mid-run.
	finished := submit(t, ts1.URL, smallSpec(1))
	await(t, ts1.URL, finished.ID)
	running := submit(t, ts1.URL, slowSpec(2))
	queuedA := submit(t, ts1.URL, smallSpec(3))
	queuedB := submit(t, ts1.URL, smallSpec(4))
	canceled := submit(t, ts1.URL, smallSpec(5))
	if code, v := cancelJob(t, ts1.URL, canceled.ID); code != 200 || v.Status != StatusCanceled {
		t.Fatalf("pre-crash cancel: %d %+v", code, v)
	}

	// "Crash": snapshot the disk state while s1 is mid-simulation, then
	// abandon s1 (its teardown is deferred; the snapshot is the truth).
	dir2 := t.TempDir()
	copyTree(t, dir1, dir2)
	ts1.Close()
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		s1.Shutdown(ctx)
	}()

	// Restart over the snapshot.
	cfg2 := cfg1
	cfg2.CacheDir = filepath.Join(dir2, "cache")
	cfg2.JournalPath = filepath.Join(dir2, "journal.jsonl")
	s2, ts2 := newTestServer(t, cfg2)
	rec := s2.Recovery()
	if rec.Completed < 1 {
		t.Fatalf("recovery served %d completed jobs, want >= 1 (the pre-crash done job): %+v", rec.Completed, rec)
	}
	if rec.Requeued < 3 {
		t.Fatalf("recovery requeued %d jobs, want >= 3 (running + 2 queued): %+v", rec.Requeued, rec)
	}

	// The finished job survives with its result; the canceled one stays
	// canceled and was not re-run.
	if v, ok := s2.Job(finished.ID, false); !ok || v.Status != StatusDone || !v.Recovered {
		t.Fatalf("pre-crash done job after restart: ok=%v %+v", ok, v)
	}
	if v, ok := s2.Job(canceled.ID, false); !ok || v.Status != StatusCanceled {
		t.Fatalf("pre-crash canceled job after restart: ok=%v %+v", ok, v)
	}

	// Every lost job re-runs to the hash an uninterrupted control run
	// produces — the recovery-is-verifiable contract.
	for _, c := range []struct {
		id   string
		spec JobSpec
	}{{running.ID, slowSpec(2)}, {queuedA.ID, smallSpec(3)}, {queuedB.ID, smallSpec(4)}} {
		v := await(t, ts2.URL, c.id)
		if v.Status != StatusDone {
			t.Fatalf("recovered job %s ended %q: %+v", c.id, v.Status, v)
		}
		if !v.Recovered {
			t.Fatalf("re-run job %s not flagged recovered", c.id)
		}
		control, err := minnow.Run(c.spec.Bench, c.spec.Config.ToConfig())
		if err != nil {
			t.Fatal(err)
		}
		if v.SummaryHash != control.SummaryHash {
			t.Fatalf("recovered job %s hash %s != uninterrupted control %s", c.id, v.SummaryHash, control.SummaryHash)
		}
	}
	if c := metric(t, s2.MetricsText(), "minnowd_cache_conflicts_total"); c != 0 {
		t.Fatalf("recovery produced %v cache conflicts", c)
	}

	// Idempotency: a third server over the same (now fully terminal)
	// state replays everything as completed and simulates nothing.
	ts2.Close()
	stop(t, s2)
	s3, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop(t, s3)
	rec3 := s3.Recovery()
	if rec3.Requeued != 0 {
		t.Fatalf("double restart requeued %d jobs, want 0: %+v", rec3.Requeued, rec3)
	}
	if v, ok := s3.Job(queuedA.ID, false); !ok || v.Status != StatusDone {
		t.Fatalf("double restart lost job state: ok=%v %+v", ok, v)
	}
	if sims := metric(t, s3.MetricsText(), "minnowd_sims_total"); sims != 0 {
		t.Fatalf("double restart simulated %v times, want 0", sims)
	}
}

// TestJournalCompaction pins the bounded-journal contract: startup
// compacts the journal down to the replayed survivors, replay
// re-registers at most replayTerminalCap terminal jobs (newest first),
// and a dropped job's ID still advances the sequence so it is never
// reused by a new submission.
func TestJournalCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	jl, _, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	const extra = 50
	for i := 1; i <= replayTerminalCap+extra; i++ {
		id := fmt.Sprintf("j-%d", i)
		for _, r := range []journal.Record{
			{Op: journal.OpSubmit, ID: id, Bench: "SSSP", Key: id},
			{Op: journal.OpStart, ID: id},
			{Op: journal.OpCanceled, ID: id, Error: "x"},
		} {
			if err := jl.Append(r, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{Shards: 1, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(s.Jobs()); n != replayTerminalCap {
		t.Fatalf("replay registered %d jobs, want %d (terminal cap)", n, replayTerminalCap)
	}
	if _, ok := s.Job("j-1", false); ok {
		t.Fatal("oldest terminal job survived past the cap")
	}
	newest := fmt.Sprintf("j-%d", replayTerminalCap+extra)
	if v, ok := s.Job(newest, false); !ok || v.Status != StatusCanceled {
		t.Fatalf("newest terminal job %s after replay: ok=%v %+v", newest, ok, v)
	}
	// Dropped IDs still advance the sequence: a fresh submission must
	// not reuse j-1..j-50.
	v, err := s.Submit(smallSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("j-%d", replayTerminalCap+extra+1); v.ID != want {
		t.Fatalf("post-replay submission got ID %s, want %s", v.ID, want)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// The on-disk journal was rewritten down to one folded canceled
	// record per surviving job plus the new job's lifecycle (submit +
	// start + done).
	_, recs, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := replayTerminalCap + 3; len(recs) != want {
		t.Fatalf("compacted journal holds %d records, want %d", len(recs), want)
	}
}

// TestReplayRekeysStaleKey pins that replay re-keys an unfinished job
// under the running key schema. A submit record journaled under an
// older schema's key must still coalesce with a fresh identical
// submission (one simulation), and its result must be filed under the
// current CacheKey with a matching key document.
func TestReplayRekeysStaleKey(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	spec := slowSpec(9)
	raw, err := json.Marshal(spec.Config)
	if err != nil {
		t.Fatal(err)
	}
	jl, _, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.Append(journal.Record{Op: journal.OpSubmit, ID: "j-1", Bench: spec.Bench, Key: "stale-v2-key", Spec: raw}, true); err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Shards: 1, JournalPath: path, CacheDir: filepath.Join(dir, "cache")})
	fresh := submit(t, ts.URL, spec)
	if !fresh.Coalesced {
		t.Fatalf("fresh submission did not coalesce with the replayed job: %+v", fresh)
	}
	replayed, fresh := await(t, ts.URL, "j-1"), await(t, ts.URL, fresh.ID)
	if sims := metric(t, s.MetricsText(), "minnowd_sims_total"); sims != 1 {
		t.Fatalf("simulated %v times, want 1", sims)
	}
	want, wantDoc := CacheKey(spec.Bench, spec.Config.ToConfig())
	if replayed.Key != want || fresh.Key != want {
		t.Fatalf("keys replayed=%s fresh=%s, want %s", replayed.Key, fresh.Key, want)
	}
	e, ok := s.cache.Get(want)
	if !ok || string(e.KeyJSON) != string(wantDoc) {
		t.Fatalf("entry under %s: ok=%v key doc %s, want %s", want, ok, e.KeyJSON, wantDoc)
	}
}

// TestSSESubscriberNoLeak pins the stream lifecycle: 100 abrupt
// subscribe/disconnect cycles against a live job leave no subscriber
// channels and no goroutines behind.
func TestSSESubscriberNoLeak(t *testing.T) {
	s, ts := newTestServer(t, Config{Shards: 1, ProgressEvery: 20000})
	blocker := submit(t, ts.URL, slowSpec(1)) // keeps the shard busy
	target := submit(t, ts.URL, smallSpec(2)) // stays queued: streams attach and wait

	runtime.GC()
	baseline := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/jobs/"+target.ID+"/stream", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		// Abrupt disconnect: cancel the request mid-stream, read nothing.
		cancel()
		resp.Body.Close()
	}
	// Handlers unwind asynchronously; give them a bounded moment.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		s.mu.Lock()
		subs := len(s.jobs[target.ID].flight.subs)
		s.mu.Unlock()
		if subs == 0 && runtime.NumGoroutine() <= baseline+3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leak after 100 subscribe/disconnect cycles: %d subscriber channels, %d goroutines (baseline %d)",
				subs, runtime.NumGoroutine(), baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}
	await(t, ts.URL, blocker.ID)
	await(t, ts.URL, target.ID)
}
