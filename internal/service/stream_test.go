package service

import (
	"context"
	"net/http"
	"sync"
	"testing"
	"time"
)

// sseResult is one /jobs/{id}/stream session.
type sseResult struct {
	cycles []int64 // sample event cycle stamps, arrival order
	final  JobView // the terminal "done" event payload
	dones  int     // 1 once the Client accepted the stream's one done event
}

// readStream follows one job's stream to its end through the Client.
func readStream(t *testing.T, base, id string) sseResult {
	t.Helper()
	var out sseResult
	final, err := NewClient(base, nil).Wait(context.Background(), id, func(ev ProgressEvent) {
		out.cycles = append(out.cycles, ev.Cycles)
	})
	if err != nil {
		t.Error(err)
		return out
	}
	out.final, out.dones = final, 1
	return out
}

// requireMonotone fails unless the cycle stamps are strictly
// increasing — the stream ordering contract: samples are published in
// simulation order and a lossy subscriber may skip but never reorder
// or repeat.
func requireMonotone(t *testing.T, who string, cycles []int64) {
	t.Helper()
	for i := 1; i < len(cycles); i++ {
		if cycles[i] <= cycles[i-1] {
			t.Fatalf("%s: samples not strictly increasing at %d: %v", who, i, cycles)
		}
	}
	for i, c := range cycles {
		if c <= 0 {
			t.Fatalf("%s: non-positive cycle stamp at %d: %v", who, i, cycles)
		}
	}
}

// TestStreamMonotoneAcrossCoalesceAndCancel pins the SSE event-ordering
// contract under the two hard paths at once: a coalesced follower
// streams the primary's flight, the primary's own submission is
// canceled mid-run, and both streams must still deliver strictly
// increasing checkpoint cycles — the follower's ending in "done" with a
// result (the flight outlived its carrier), the primary's ending in
// "canceled".
func TestStreamMonotoneAcrossCoalesceAndCancel(t *testing.T) {
	s, ts := newTestServer(t, Config{Shards: 1, ProgressEvery: 20000})
	p := submit(t, ts.URL, slowSpec(7))

	// Wait until the shard picks the primary up, so the duplicate below
	// coalesces onto a running flight.
	waitRunning(t, s, p.ID)
	f := submit(t, ts.URL, slowSpec(7))
	if !f.Coalesced {
		t.Fatalf("duplicate did not coalesce: %+v", f)
	}

	var wg sync.WaitGroup
	var pr, fr sseResult
	wg.Add(2)
	go func() { defer wg.Done(); pr = readStream(t, ts.URL, p.ID) }()
	go func() { defer wg.Done(); fr = readStream(t, ts.URL, f.ID) }()

	// Give both streams a moment to attach and see at least one sample,
	// then cancel the primary's submission — the flight keeps running
	// for the follower.
	time.Sleep(300 * time.Millisecond)
	if code, v := cancelJob(t, ts.URL, p.ID); code != http.StatusOK || v.Status != StatusCanceled {
		t.Fatalf("DELETE primary = %d %+v", code, v)
	}
	wg.Wait()

	requireMonotone(t, "primary", pr.cycles)
	requireMonotone(t, "follower", fr.cycles)
	if pr.dones != 1 || pr.final.Status != StatusCanceled {
		t.Fatalf("primary stream terminal: dones=%d final=%+v", pr.dones, pr.final)
	}
	if fr.dones != 1 || fr.final.Status != StatusDone || fr.final.SummaryHash == "" {
		t.Fatalf("follower stream terminal: dones=%d final=%+v", fr.dones, fr.final)
	}
	if len(fr.cycles) == 0 {
		t.Fatal("follower stream saw no samples")
	}
	// The follower's checkpoint view advanced with the flight it rode.
	if fin := await(t, ts.URL, f.ID); fin.CheckpointCycles <= 0 {
		t.Fatalf("follower checkpoint cycles = %d, want > 0", fin.CheckpointCycles)
	}
}

// TestStreamReplayNotAhead pins the late-subscriber contract: a stream
// opened mid-run starts with the replayed most-recent sample and every
// subsequent sample is newer — monotonicity holds from the replay
// onward, not just between live samples.
func TestStreamReplayNotAhead(t *testing.T) {
	s, ts := newTestServer(t, Config{Shards: 1, ProgressEvery: 20000})
	v := submit(t, ts.URL, slowSpec(8))

	// Wait for the run to produce at least one sample.
	deadline := time.Now().Add(time.Minute)
	for {
		cur, ok := s.Job(v.ID, false)
		if !ok {
			t.Fatal("job vanished")
		}
		if cur.CheckpointCycles > 0 {
			break
		}
		if Terminal(cur.Status) {
			t.Fatalf("job finished before a checkpoint: %+v", cur)
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint appeared")
		}
		time.Sleep(2 * time.Millisecond)
	}
	r := readStream(t, ts.URL, v.ID)
	requireMonotone(t, "late subscriber", r.cycles)
	if len(r.cycles) == 0 {
		t.Fatal("late subscriber saw no samples (replay missing)")
	}
	if r.dones != 1 || r.final.Status != StatusDone {
		t.Fatalf("late subscriber terminal: dones=%d final=%+v", r.dones, r.final)
	}
}
