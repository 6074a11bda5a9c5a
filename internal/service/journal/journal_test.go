package journal

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, recs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	want := []Record{
		{Op: OpSubmit, ID: "j-1", Bench: "SSSP", Key: "abc", Priority: 2, Spec: json.RawMessage(`{"Threads":2}`)},
		{Op: OpStart, ID: "j-1"},
		{Op: OpCheckpoint, ID: "j-1", Cycles: 50000, Samples: 5},
		{Op: OpDone, ID: "j-1", Hash: "deadbeef"},
		{Op: OpSubmit, ID: "j-2", Bench: "BFS", Key: "def"},
		{Op: OpCanceled, ID: "j-2", Error: "canceled by client"},
	}
	for _, r := range want {
		if err := j.Append(r, r.Op != OpCheckpoint); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, recs, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		if r.Op != want[i].Op || r.ID != want[i].ID || r.Bench != want[i].Bench ||
			r.Key != want[i].Key || r.Priority != want[i].Priority ||
			r.Cycles != want[i].Cycles || r.Samples != want[i].Samples ||
			r.Hash != want[i].Hash || r.Error != want[i].Error {
			t.Fatalf("record %d = %+v, want %+v", i, r, want[i])
		}
	}
	if string(recs[0].Spec) != `{"Threads":2}` {
		t.Fatalf("spec did not round-trip: %s", recs[0].Spec)
	}
}

func TestTornTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Op: OpSubmit, ID: "j-1", Key: "k"}, true); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Simulate a crash mid-append: a torn, undecodable final line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"op":"done","id":"j-`)
	f.Close()

	j2, recs, err := Open(path)
	if err != nil {
		t.Fatalf("torn tail failed recovery: %v", err)
	}
	if len(recs) != 1 || recs[0].ID != "j-1" || recs[0].Op != OpSubmit {
		t.Fatalf("replay after torn tail = %+v, want the one intact record", recs)
	}
	// Open repairs the torn tail (terminates the fragment with a
	// newline), so the very FIRST record appended after the
	// crash-restart must survive the next replay — a lost terminal
	// record here would resurrect a canceled job.
	if err := j2.Append(Record{Op: OpCanceled, ID: "j-1"}, true); err != nil {
		t.Fatal(err)
	}
	if err := j2.Append(Record{Op: OpSubmit, ID: "j-2", Key: "k2"}, true); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	_, recs, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("replay after repaired torn tail = %d records %+v, want 3", len(recs), recs)
	}
	if recs[1].ID != "j-1" || recs[1].Op != OpCanceled {
		t.Fatalf("first record appended after torn tail lost on replay: %+v", recs)
	}
	if recs[2].ID != "j-2" || recs[2].Op != OpSubmit {
		t.Fatalf("second record appended after torn tail lost on replay: %+v", recs)
	}
}

func TestRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	full := []Record{
		{Op: OpSubmit, ID: "j-1", Key: "k1"},
		{Op: OpStart, ID: "j-1"},
		{Op: OpCheckpoint, ID: "j-1", Cycles: 100},
		{Op: OpDone, ID: "j-1", Hash: "aa"},
		{Op: OpSubmit, ID: "j-2", Key: "k2"},
	}
	for _, r := range full {
		if err := j.Append(r, false); err != nil {
			t.Fatal(err)
		}
	}
	compact := []Record{
		{Op: OpSubmit, ID: "j-1", Key: "k1"},
		{Op: OpDone, ID: "j-1", Hash: "aa"},
		{Op: OpSubmit, ID: "j-2", Key: "k2"},
	}
	if err := j.Rewrite(compact); err != nil {
		t.Fatal(err)
	}
	// Appends after a rewrite land in the new file.
	if err := j.Append(Record{Op: OpStart, ID: "j-2"}, true); err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, recs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	want := append(compact, Record{Op: OpStart, ID: "j-2"})
	if len(recs) != len(want) {
		t.Fatalf("rewritten journal replayed %d records %+v, want %d", len(recs), recs, len(want))
	}
	for i, r := range recs {
		if r.Op != want[i].Op || r.ID != want[i].ID || r.Key != want[i].Key || r.Hash != want[i].Hash {
			t.Fatalf("record %d = %+v, want %+v", i, r, want[i])
		}
	}
}

func TestTerminal(t *testing.T) {
	for op, want := range map[Op]bool{
		OpSubmit: false, OpStart: false, OpCheckpoint: false,
		OpDone: true, OpFailed: true, OpCanceled: true,
	} {
		if op.Terminal() != want {
			t.Fatalf("%s.Terminal() = %v, want %v", op, !want, want)
		}
	}
}

func TestConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	const writers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := j.Append(Record{Op: OpCheckpoint, ID: "j-1", Cycles: int64(i)}, false); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	j.Close()
	_, recs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != writers*per {
		t.Fatalf("replayed %d records after concurrent append, want %d (interleaved writes corrupted lines?)", len(recs), writers*per)
	}
}

func TestClosedAppendFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if err := j.Append(Record{Op: OpSubmit, ID: "j-1"}, false); err == nil {
		t.Fatal("append after close succeeded")
	}
}

// TestLongLineReplays pins that no line is too long to replay: a submit
// record whose spec carries a fault plan of about 19 MB, past the 16 MiB
// token cap a bufio.Scanner would impose, decodes with the records
// around it.
func TestLongLineReplays(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	spec := json.RawMessage(`{"Faults":"` + strings.Repeat("noc-delay:p=0.001,cycles=1;", 700000) + `"}`)
	want := []Record{
		{Op: OpSubmit, ID: "j-1", Key: "k1"},
		{Op: OpSubmit, ID: "j-2", Key: "k2", Spec: spec},
		{Op: OpDone, ID: "j-1", Hash: "aa"},
	}
	for _, r := range want {
		if err := j.Append(r, false); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	if fi, err := os.Stat(path); err != nil || fi.Size() <= 16<<20 {
		t.Fatalf("journal of %v bytes (%v), want a line over 16 MiB", fi.Size(), err)
	}
	j, recs, err := Open(path)
	if err != nil {
		t.Fatalf("long line failed recovery: %v", err)
	}
	j.Close()
	if !j.Intact() || len(recs) != len(want) {
		t.Fatalf("replayed %d records (intact %v), want %d", len(recs), j.Intact(), len(want))
	}
	for i, r := range recs {
		if !r.Equal(want[i]) {
			t.Fatalf("record %d = %.200v, want %.200v", i, r, want[i])
		}
	}
}
