// Package journal is minnowd's durable job log: an append-only
// newline-delimited-JSON file that records every job's lifecycle
// (submit → start → checkpoint* → done|failed|canceled) so a crashed
// server can reconstruct its queue on restart. Replay is driven by the
// service package: jobs whose last record is non-terminal are
// re-enqueued (determinism guarantees the re-run reproduces the exact
// SummaryHash the lost run would have produced), jobs with a terminal
// record are re-registered served from the result cache, and checkpoint
// records report how far a crashed run had progressed.
//
// Durability contract: Append writes each record as a single
// line-buffered write; with sync=true the file is fsync'd before Append
// returns, so submit and terminal records survive a kill -9 the moment
// the API acknowledges them. Checkpoints are written without sync —
// losing the last few progress stamps costs nothing, the job re-runs
// anyway. A crash can leave a torn final line; Open tolerates it (and
// any other undecodable line) by skipping, and repairs it by
// terminating the fragment with a newline, so recovery never fails on
// the artifact of the crash it exists to survive and the first record
// appended after a restart lands on a fresh line instead of fusing
// with the fragment.
//
// Line format: each line is a Record as json.Marshal writes it, and
// Append and Rewrite write nothing else. Open reads that form with a
// strict single-pass decoder (decode.go) and hands any other line — a
// spec, whitespace, escapes, unknown or case-variant keys, null — to
// json.Unmarshal, so every line decodes exactly as json.Unmarshal would
// decode it, only faster. Lines have no length limit.
//
// Compacted form: the service rewrites the journal at startup down to
// the jobs it keeps. A finished job becomes one folded terminal record
// (Record.Folded) carrying its submit fields; an unfinished one keeps
// its submit record and latest checkpoint. Live appends always use the
// submit-then-terminal form.
//
// Concurrency contract: a Journal is safe for concurrent use; every
// Append serializes on an internal mutex. Records for different jobs
// interleave freely — replay groups them by ID.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Op identifies a record's lifecycle event.
type Op string

// Lifecycle operations, in the order a job emits them. Every job starts
// with OpSubmit and ends with exactly one of the three terminal ops;
// OpStart and OpCheckpoint appear only between the two.
const (
	// OpSubmit records a job accepted into the queue (fsync'd: the job
	// survives a crash from the moment the API acknowledged it).
	OpSubmit Op = "submit"
	// OpStart records a worker shard picking the job up.
	OpStart Op = "start"
	// OpCheckpoint records mid-run progress: simulated cycles reached
	// and interval samples emitted. Written without fsync.
	OpCheckpoint Op = "checkpoint"
	// OpDone records successful completion (fsync'd), with the result's
	// SummaryHash; the result itself lives in the cache under Key.
	OpDone Op = "done"
	// OpFailed records a failed simulation (fsync'd), with the error.
	OpFailed Op = "failed"
	// OpCanceled records cancellation — client DELETE or shutdown —
	// whether the job was still queued or already running (fsync'd).
	OpCanceled Op = "canceled"
)

// Terminal reports whether the op ends a job's lifecycle.
func (o Op) Terminal() bool {
	return o == OpDone || o == OpFailed || o == OpCanceled
}

// Record is one journal line. Only ID and Op are always present; the
// remaining fields depend on the op (see the Op constants).
type Record struct {
	// Op is the lifecycle event.
	Op Op `json:"op"`
	// ID is the server-assigned job identifier the record belongs to.
	ID string `json:"id"`
	// Bench is the benchmark name (submit records).
	Bench string `json:"bench,omitempty"`
	// Key is the canonical cache key of the job's resolved configuration
	// (submit records) — recovery's bridge from journal to result cache.
	Key string `json:"key,omitempty"`
	// Priority is the submitted queue priority (submit records).
	Priority int `json:"priority,omitempty"`
	// At is the record's wall-clock time in Unix nanoseconds: the
	// submission time on submit records, the dispatch time on start
	// records, the sample time on checkpoint records, and the terminal
	// time on done/failed/canceled records. Replay restores these stamps
	// so a recovered job's latency metrics and lifecycle trace span the
	// crash instead of restarting the clock at replay — the service's
	// job traces piggyback entirely on these fields, so tracing adds no
	// journal records of its own.
	At int64 `json:"at,omitempty"`
	// Corr is the job's correlation ID (submit records), preserved so a
	// client can still find its submission by correlation ID after a
	// restart.
	Corr string `json:"corr,omitempty"`
	// StartAt is the wall-clock time (Unix nanoseconds) the job's
	// simulation was dispatched to a worker shard, carried on terminal
	// records (0 when the job never ran) so the queue-wait/exec split
	// survives journal compaction, which drops start records.
	StartAt int64 `json:"start_at,omitempty"`
	// SubmitAt is the submission time (Unix nanoseconds) on a compacted
	// terminal record: compaction folds a finished job's submit record
	// into its terminal one, which then also carries Bench, Key, Corr and
	// Priority (but no Spec — a finished job never re-runs). Live
	// terminal records leave it 0 and follow their submit record.
	SubmitAt int64 `json:"submit_at,omitempty"`
	// Spec is the resolved ConfigSpec JSON (submit records), everything
	// replay needs to re-run the job without the original request.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Cycles is the simulated cycle stamp: of the sample a checkpoint
	// record journals, or, on a terminal record, of the job's last
	// progress sample (later than its last checkpoint).
	Cycles int64 `json:"cycles,omitempty"`
	// Samples is the count of interval samples emitted so far
	// (checkpoint records).
	Samples int64 `json:"samples,omitempty"`
	// Hash is the result's SummaryHash (done records).
	Hash string `json:"hash,omitempty"`
	// Error is the failure or cancellation reason (failed/canceled
	// records).
	Error string `json:"error,omitempty"`
}

// Folded reports whether r is a compacted terminal record: one that
// carries its job's submit fields (Bench, Key, Corr, Priority,
// SubmitAt) and so stands for the whole finished job, with no submit
// record before it. Live terminal records carry no Key.
func (r Record) Folded() bool { return r.Op.Terminal() && r.Key != "" }

// Equal reports whether two records are equal field for field (Spec
// byte for byte).
func (r Record) Equal(o Record) bool {
	return r.Op == o.Op && r.ID == o.ID && r.Bench == o.Bench && r.Key == o.Key &&
		r.Priority == o.Priority && r.At == o.At && r.Corr == o.Corr &&
		r.StartAt == o.StartAt && r.SubmitAt == o.SubmitAt && bytes.Equal(r.Spec, o.Spec) &&
		r.Cycles == o.Cycles && r.Samples == o.Samples && r.Hash == o.Hash && r.Error == o.Error
}

// lineSizeEstimate presizes Open's record slice from the file size. It
// sits just under the 200 to 300 bytes of a folded record, the bulk of
// a compacted journal; a live journal's shorter start and checkpoint
// lines can outgrow the estimate, and the slice then grows.
const lineSizeEstimate = 192

// Journal is an open append-only job log.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
	// skipped counts the lines Open could not turn into a record: blank,
	// torn, or corrupt.
	skipped int
}

// Open opens (creating if missing) the journal at path and replays its
// existing records. Undecodable lines — a torn tail from a crash
// mid-append, manual truncation — are skipped, not fatal: the journal
// must be readable after exactly the failures it protects against. A
// torn final line (no trailing newline) is additionally repaired by
// writing the missing newline, so the first record appended after the
// crash starts its own line instead of concatenating onto the fragment
// and being lost as corrupt on the next replay. The returned slice
// preserves append order.
func Open(path string) (*Journal, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	var recs []Record
	if fi, err := f.Stat(); err == nil {
		recs = make([]Record, 0, fi.Size()/lineSizeEstimate+1)
	}
	skipped := 0
	lr := lineReader{r: bufio.NewReaderSize(f, 64<<10)}
	for {
		line, err := lr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: read %s: %w", path, err)
		}
		recs = append(recs, Record{})
		if r := &recs[len(recs)-1]; decode(line, r) != nil || r.ID == "" || r.Op == "" {
			recs = recs[:len(recs)-1]
			skipped++ // blank, torn or corrupt line: skip, never fail recovery
		}
	}
	// Appends must land at the end regardless of where the scan stopped.
	end, err := f.Seek(0, 2)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	// Repair a torn tail: if the file does not end in a newline (a crash
	// mid-append), terminate the fragment so the next Append starts a
	// fresh line — an fsync-acknowledged record written after a restart
	// must never fuse with the fragment and vanish on the replay after.
	if end > 0 {
		var last [1]byte
		if _, err := f.ReadAt(last[:], end-1); err == nil && last[0] != '\n' {
			if _, err := f.Write([]byte{'\n'}); err != nil {
				f.Close()
				return nil, nil, fmt.Errorf("journal: repair torn tail: %w", err)
			}
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, nil, fmt.Errorf("journal: repair torn tail: %w", err)
			}
		}
	}
	return &Journal{f: f, path: path, skipped: skipped}, recs, nil
}

// Intact reports whether every line Open read decoded into one of the
// records it returned — no blank, torn, or corrupt line. A journal that
// is intact and already holds exactly the records a compaction would
// write needs no Rewrite.
func (j *Journal) Intact() bool { return j.skipped == 0 }

// Append writes one record as a single JSON line. With sync=true the
// file is fsync'd before returning — used for submit and terminal
// records, whose durability the API's acknowledgment promises;
// checkpoints skip the fsync because losing them only loses a progress
// report.
func (j *Journal) Append(r Record, sync bool) error {
	b, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("journal: marshal: %w", err)
	}
	b = append(b, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("journal: closed")
	}
	if _, err := j.f.Write(b); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	if sync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: sync: %w", err)
		}
	}
	return nil
}

// Rewrite atomically replaces the journal's contents with recs —
// written to a temp file, fsync'd, renamed over the live path, and the
// rename made durable by an fsync of the directory — then reopens the
// append handle on the new file. The service calls it at startup, right
// after replay, with the compacted record set (live jobs plus a bounded
// tail of terminal ones) whenever that differs from what the file
// holds, so the journal and its replay cost stay proportional to
// retained state instead of growing with lifetime job count. A crash
// anywhere inside Rewrite leaves either the old or the new journal
// intact, never a mix; once it returns, records appended afterwards
// cannot be lost to a power cut reverting the rename.
func (j *Journal) Rewrite(recs []Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("journal: closed")
	}
	tmp, err := os.CreateTemp(filepath.Dir(j.path), ".journal-*")
	if err != nil {
		return fmt.Errorf("journal: rewrite: %w", err)
	}
	w := bufio.NewWriter(tmp)
	for _, r := range recs {
		b, err := json.Marshal(r)
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return fmt.Errorf("journal: rewrite: marshal: %w", err)
		}
		b = append(b, '\n')
		if _, err := w.Write(b); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return fmt.Errorf("journal: rewrite: %w", err)
		}
	}
	if err := errors.Join(w.Flush(), tmp.Sync(), tmp.Close()); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("journal: rewrite: %w", err)
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("journal: rewrite: %w", err)
	}
	f, err := os.OpenFile(j.path, os.O_RDWR, 0o644)
	if err != nil {
		// The rename landed but the reopen failed: keep appending to the
		// doomed handle (its writes go nowhere durable) rather than
		// leaving the journal closed mid-flight.
		return fmt.Errorf("journal: rewrite: reopen: %w", err)
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return fmt.Errorf("journal: rewrite: %w", err)
	}
	j.f.Close()
	j.f = f
	if err := syncDir(filepath.Dir(j.path)); err != nil {
		return fmt.Errorf("journal: rewrite: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory, making a rename inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	return errors.Join(d.Sync(), d.Close())
}

// Close syncs and closes the journal file. Further Appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := errors.Join(j.f.Sync(), j.f.Close())
	j.f = nil
	return err
}
