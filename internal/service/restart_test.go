package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"minnow/internal/service/journal"
)

// liveJournal leaves behind what a server that never restarted writes:
// one job run to completion through the API (corr and priority set, and
// progress sampled every progressEvery cycles when that is nonzero),
// then a canceled job that had started and a failed one that had not,
// all in the live record form (submit, start, terminal). It returns the
// config over that state, the done job's ID, and its ?full=1 response
// body from the live server.
func liveJournal(t *testing.T, progressEvery int64) (cfg Config, doneID string, live []byte) {
	t.Helper()
	dir := t.TempDir()
	cfg = Config{Shards: 1, CacheDir: filepath.Join(dir, "cache"), JournalPath: filepath.Join(dir, "journal.jsonl"),
		ProgressEvery: progressEvery}
	s, ts := newTestServer(t, cfg)
	spec := smallSpec(7)
	spec.Corr, spec.Priority = "restart-corr", 3
	doneID = submit(t, ts.URL, spec).ID
	if v := await(t, ts.URL, doneID); v.Status != StatusDone {
		t.Fatalf("live job: %+v", v)
	}
	ts.Close()
	live = get(t, s, "/jobs/"+doneID+"?full=1")
	stop(t, s)

	jl, _, err := journal.Open(cfg.JournalPath)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().UnixNano()
	for _, r := range []journal.Record{
		{Op: journal.OpSubmit, ID: "j-2", Bench: "BFS", Key: "k2", Corr: "c2", Priority: 1, At: now, Spec: json.RawMessage(`{"Threads":1}`)},
		{Op: journal.OpSubmit, ID: "j-3", Bench: "CC", Key: "k3", Corr: "c3", At: now + 1, Spec: json.RawMessage(`{"Threads":1}`)},
		{Op: journal.OpStart, ID: "j-2", At: now + 2},
		{Op: journal.OpCanceled, ID: "j-2", Error: "service: canceled by client", At: now + 3, StartAt: now + 2},
		{Op: journal.OpFailed, ID: "j-3", Error: "boom", At: now + 4},
	} {
		if err := jl.Append(r, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	return cfg, doneID, live
}

// get serves one GET request from s and returns the response body.
func get(t *testing.T, s *Server, path string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != 200 {
		t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// stop shuts s down and fails the test on an error.
func stop(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// restart starts a server over cfg's state and returns its GET /jobs
// and done job's GET /jobs/{id}?full=1 bodies, then shuts it down.
func restart(t *testing.T, cfg Config, doneID string) (list, full []byte) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	list, full = get(t, s, "/jobs"), get(t, s, "/jobs/"+doneID+"?full=1")
	stop(t, s)
	return list, full
}

// readJournal returns every record the journal at path holds.
func readJournal(t *testing.T, path string) []journal.Record {
	t.Helper()
	jl, recs, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestLegacyJournalFolds pins both compacted forms of a finished job:
// a journal compacted into submit-plus-terminal pairs, as older servers
// wrote it, replays to the same views as the live journal it came from,
// and compacts to one folded record per job (no spec), which in turn
// replays to the same views.
func TestLegacyJournalFolds(t *testing.T) {
	cfg, doneID, _ := liveJournal(t, 0)
	liveBytes, err := os.ReadFile(cfg.JournalPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(liveBytes, []byte(`"op":"start"`)) {
		t.Fatalf("live journal lacks start records:\n%s", liveBytes)
	}
	var legacy bytes.Buffer
	for _, r := range readJournal(t, cfg.JournalPath) {
		if r.Op == journal.OpSubmit || r.Op.Terminal() {
			b, _ := json.Marshal(r)
			legacy.Write(append(b, '\n'))
		}
	}

	liveList, liveFull := restart(t, cfg, doneID)
	if err := os.WriteFile(cfg.JournalPath, legacy.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	legacyList, legacyFull := restart(t, cfg, doneID)
	recs := readJournal(t, cfg.JournalPath)
	if len(recs) != 3 {
		t.Fatalf("legacy journal compacted to %d records, want 3: %+v", len(recs), recs)
	}
	for _, r := range recs {
		if !r.Folded() || r.Spec != nil || r.SubmitAt == 0 {
			t.Fatalf("compacted record not folded: %+v", r)
		}
	}
	foldedList, foldedFull := restart(t, cfg, doneID)
	for name, got := range map[string][][2][]byte{
		"legacy": {{legacyList, liveList}, {legacyFull, liveFull}},
		"folded": {{foldedList, liveList}, {foldedFull, liveFull}},
	} {
		for _, p := range got {
			if !bytes.Equal(p[0], p[1]) {
				t.Errorf("%s replay view differs from the live journal's:\ngot  %s\nwant %s", name, p[0], p[1])
			}
		}
	}
}

// TestCleanRestartLeavesJournal pins the no-op restart: once compacted,
// a restart with nothing new neither rewrites nor replaces the journal
// file, and says so in the flight recorder's replay event.
func TestCleanRestartLeavesJournal(t *testing.T) {
	cfg, doneID, _ := liveJournal(t, 0)
	firstList, firstFull := restart(t, cfg, doneID)
	before, err := os.ReadFile(cfg.JournalPath)
	if err != nil {
		t.Fatal(err)
	}
	beforeInfo, err := os.Stat(cfg.JournalPath)
	if err != nil {
		t.Fatal(err)
	}

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fr := string(get(t, s, "/debug/flightrec")); !strings.Contains(fr, "read=3 kept=3 rewritten=false") {
		t.Errorf("replay event does not report a skipped rewrite:\n%s", fr)
	}
	list, full := get(t, s, "/jobs"), get(t, s, "/jobs/"+doneID+"?full=1")
	stop(t, s)

	after, err := os.ReadFile(cfg.JournalPath)
	if err != nil {
		t.Fatal(err)
	}
	afterInfo, err := os.Stat(cfg.JournalPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) || !os.SameFile(beforeInfo, afterInfo) {
		t.Fatalf("clean restart rewrote the journal:\nbefore %s\nafter  %s", before, after)
	}
	if !bytes.Equal(list, firstList) || !bytes.Equal(full, firstFull) {
		t.Fatalf("clean restart changed the views:\n%s\n%s", firstList, list)
	}
}

// TestDamagedJournalRewritten pins that a journal holding a line replay
// could not read — blank, or a torn tail — is rewritten even when its
// records are already compact.
func TestDamagedJournalRewritten(t *testing.T) {
	for name, damage := range map[string]func([]byte) []byte{
		"blank line": func(b []byte) []byte {
			i := bytes.IndexByte(b, '\n') + 1
			return append(append(append([]byte{}, b[:i]...), '\n'), b[i:]...)
		},
		"torn tail": func(b []byte) []byte { return append(append([]byte{}, b...), `{"op":"submit","id":"j-9`...) },
	} {
		t.Run(name, func(t *testing.T) {
			cfg, doneID, _ := liveJournal(t, 0)
			restart(t, cfg, doneID)
			clean, err := os.ReadFile(cfg.JournalPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(cfg.JournalPath, damage(clean), 0o644); err != nil {
				t.Fatal(err)
			}
			damaged, err := os.Stat(cfg.JournalPath)
			if err != nil {
				t.Fatal(err)
			}
			restart(t, cfg, doneID)
			got, err := os.ReadFile(cfg.JournalPath)
			if err != nil {
				t.Fatal(err)
			}
			info, err := os.Stat(cfg.JournalPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, clean) || os.SameFile(damaged, info) {
				t.Fatalf("damaged journal not rewritten:\n%s", got)
			}
		})
	}
}

// TestResultAttachesOnFirstRead pins that New reads no result from the
// cache for a journaled done job: with the entry deleted after New
// returns, the first GET serves the journaled summary hash and no
// summary — what an entry evicted before the restart gives.
func TestResultAttachesOnFirstRead(t *testing.T) {
	cfg, doneID, live := liveJournal(t, 0)
	var v JobView
	if err := json.Unmarshal(live, &v); err != nil {
		t.Fatal(err)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer stop(t, s)
	if err := os.Remove(filepath.Join(cfg.CacheDir, v.Key+".json")); err != nil {
		t.Fatal(err)
	}
	var got JobView
	if err := json.Unmarshal(get(t, s, "/jobs/"+doneID), &got); err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusDone || got.SummaryHash != v.SummaryHash || got.Summary != nil {
		t.Fatalf("after the entry's removal GET = %+v, want the journaled hash %s and no summary", got, v.SummaryHash)
	}
}

// TestFullResultSurvivesRestart pins a done job's ?full=1 response
// across restarts: the first restart serves the live server's bytes
// with only "recovered" and "cached" set (a recovered result is served
// from the cache), and a second restart serves the first one's bytes.
// With progress samples on, the job's last sample falls after its last
// journaled checkpoint, and checkpoint_cycles must still read the last
// sample's stamp after each restart.
func TestFullResultSurvivesRestart(t *testing.T) {
	for _, every := range []int64{0, 10_000} {
		t.Run(fmt.Sprintf("progress-every-%d", every), func(t *testing.T) {
			cfg, doneID, live := liveJournal(t, every)
			var v JobView
			if err := json.Unmarshal(live, &v); err != nil {
				t.Fatal(err)
			}
			if v.Result == nil || v.Recovered || (every > 0) != (v.CheckpointCycles > 0) {
				t.Fatalf("live view: %s", live)
			}
			v.Recovered, v.Cached = true, true
			want, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, '\n')
			_, first := restart(t, cfg, doneID)
			_, second := restart(t, cfg, doneID)
			if !bytes.Equal(first, want) {
				t.Fatalf("full view after a restart:\ngot  %s\nwant %s", first, want)
			}
			if !bytes.Equal(second, first) {
				t.Fatalf("full view changed across a second restart:\ngot  %s\nwant %s", second, first)
			}
		})
	}
}

// TestCanceledSubmissionStaysCanceledAfterRestart pins that a DELETE
// survives a restart. The first of two coalesced submissions is
// canceled mid-run while the flight runs on for its duplicate; after a
// restart over the same journal and cache the canceled job still reads
// canceled, whatever the flight journaled after the cancel.
func TestCanceledSubmissionStaysCanceledAfterRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 1, ProgressEvery: 2000,
		JournalPath: filepath.Join(dir, "journal.jsonl"), CacheDir: filepath.Join(dir, "cache")}
	s, ts := newTestServer(t, cfg)
	first := submit(t, ts.URL, slowSpec(5))
	waitRunning(t, s, first.ID)
	dup := submit(t, ts.URL, slowSpec(5))
	if !dup.Coalesced {
		t.Fatalf("duplicate did not coalesce: %+v", dup)
	}
	if code, v := cancelJob(t, ts.URL, first.ID); code != 200 || v.Status != StatusCanceled {
		t.Fatalf("DELETE %s = %d %+v, want 200 canceled", first.ID, code, v)
	}
	if v := await(t, ts.URL, dup.ID); v.Status != StatusDone {
		t.Fatalf("duplicate did not finish the flight: %+v", v)
	}
	ts.Close()
	stop(t, s)

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer stop(t, s2)
	if v, ok := s2.Job(first.ID, false); !ok || v.Status != StatusCanceled {
		t.Fatalf("canceled %s after restart: ok=%v status %q", first.ID, ok, v.Status)
	}
	if rec := s2.Recovery(); rec != (RecoveryStats{Completed: 1, Terminal: 1}) {
		t.Fatalf("recovery = %+v, want 1 completed and 1 terminal", rec)
	}
}
