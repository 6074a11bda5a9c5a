package service

import (
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"minnow"
	"minnow/internal/service/cache"
	"minnow/internal/service/journal"
	"minnow/internal/service/tracing"
)

// checkpointEverySamples is how many interval samples pass between
// journaled progress checkpoints. Checkpoints ride the observe-only
// sampling cadence (MetricsEvery / -progress-every), so they never
// participate in the cache key or perturb results; thinning them 8:1
// keeps the journal small on long chatty runs.
const checkpointEverySamples = 8

// replayTerminalCap bounds how many terminal (done/failed/canceled)
// jobs a journal replay re-registers: only the newest survive a
// restart, older ones are forgotten — their results still live in the
// cache, so an identical resubmission remains a hit; only GET
// /jobs/{id} for the ancient ID turns 404. Together with the startup
// compaction (journal.Rewrite of the replayed survivors) this keeps
// the journal size, replay time, and resident job map bounded by
// retained state instead of growing with lifetime job count.
const replayTerminalCap = 4096

// maxTraceCheckpoints bounds how many checkpoint instants a job's
// lifecycle trace retains (one per journaled checkpoint, i.e. every
// checkpointEverySamples-th interval sample); later checkpoints still
// advance CheckpointCycles, they just stop accumulating trace events.
const maxTraceCheckpoints = 512

// Config parameterizes a Server. The zero value is a working
// memory-cached server sized by minnow.SplitBudget.
type Config struct {
	// Shards is the worker pool width: how many simulations run
	// concurrently. 0 resolves via minnow.SplitBudget against IntraJobs
	// so shards × intra-jobs roughly fills the machine.
	Shards int
	// IntraJobs is applied to submitted configs that leave IntraJobs 0:
	// bound/weave workers inside each simulation. Host-only — never
	// changes results or cache keys.
	IntraJobs int
	// CacheDir persists the result cache under this directory so it
	// survives restarts; "" keeps the cache in memory only. An unusable
	// directory degrades the cache to memory-only instead of failing
	// startup (see cache.NewDisk).
	CacheDir string
	// CacheMaxBytes bounds the result cache to a byte budget with LRU
	// eviction (0 = unbounded). Eviction is a plain miss — determinism
	// means an evicted configuration re-simulates to the identical
	// result and re-enters the cache without conflict.
	CacheMaxBytes int64
	// JournalPath, when set, opens the durable job journal at this file:
	// every accepted job is recorded before the API acknowledges it and
	// its terminal outcome fsync'd when reached, so a kill -9 loses
	// nothing — on the next start the journal replays, never-completed
	// jobs re-enqueue, and completed ones serve from the cache. "" runs
	// without durability (a restart forgets in-flight jobs, as before).
	JournalPath string
	// QueueLimit bounds the number of queued-but-not-running jobs;
	// submissions beyond it are refused with 429. The bound is checked
	// at acceptance, before the (unlocked) journal fsync, so concurrent
	// submitters can briefly overshoot it by their own count. 0 selects
	// 65536.
	QueueLimit int
	// MaxCycles is applied to submitted configs that leave MaxCycles 0:
	// the per-job timeout, enforced by the simulator's watchdog (a run
	// whose simulated clock passes the bound halts with a diagnostic
	// error instead of occupying a shard forever). 0 leaves the
	// simulator's own large default in place.
	MaxCycles int64
	// ProgressEvery is applied to submitted configs that leave
	// MetricsEvery 0: the interval-metrics sampling cadence in simulated
	// cycles, which is also what feeds /jobs/{id}/stream and the
	// journal's progress checkpoints. Observe-only — never changes
	// results or cache keys. 0 leaves sampling off for jobs that did not
	// ask for it.
	ProgressEvery int64
	// TraceDir, when set, persists each executed job's merged lifecycle
	// trace (service spans + sim timeline, Chrome-trace JSON, the same
	// bytes GET /jobs/{id}/trace serves) under this directory, and is
	// where flight-recorder dumps land on panic, watchdog halt, or
	// SIGTERM. Observe-only — never changes results, cache keys, or what
	// the journal replays (TestTracingInert pins it). "" keeps traces
	// in-memory-only (the endpoint still works) and disables dumps.
	TraceDir string
	// FlightRecEvents sizes the flight recorder: how many recent
	// structured service events the crash ring buffer retains
	// (GET /debug/flightrec). 0 selects tracing.DefaultFlightEvents.
	FlightRecEvents int
}

// job is the server-side record of one submission. The simulation it
// waits on, shared with identical submissions, is its flight.
type job struct {
	id       string
	bench    string
	key      string
	priority int
	seq      int64
	// corr is the job's correlation ID: client-supplied (JobSpec.Corr or
	// the X-Correlation-ID header) or server-generated, threaded through
	// every lifecycle span, flight-recorder event, and journal submit
	// record so one ID follows the job from HTTP accept to terminal.
	corr string

	status string
	cached bool
	// onto names the submission whose flight this one coalesced onto
	// (singleflight): the flight's oldest live submission when it
	// attached. "" when it did not coalesce.
	onto      string
	recovered bool
	// journaled marks jobs with a submit record in the journal; only
	// those get lifecycle records (born-done cache hits are never
	// journaled — the response already carried the result).
	journaled bool
	errMsg    string
	entry     *cache.Entry
	// hash is the SummaryHash a recovered done job's journal record
	// carries; viewLocked falls back to it when the cache entry is gone.
	hash string
	// unattached marks a recovered done job whose cache entry nobody has
	// looked up yet: replay leaves the lookup, a disk read, to the first
	// view or trace of the job (attachEntries).
	unattached bool
	// cycles is the checkpoint stamp a recovered finished job's journal
	// record carries; a job with a flight reports the flight's.
	cycles int64

	// Lifecycle stamps backing the job's trace spans and latency
	// histograms: queuedAt→startedAt is queue wait. startedAt is the
	// flight's dispatch, or the attach time for a job that coalesced onto
	// a running flight; the exec stamps live on the flight.
	queuedAt  time.Time
	startedAt time.Time
	doneAt    time.Time

	// flight is the simulation this submission waits on, or waited on
	// once finished; nil for born-done cache hits and recovered finished
	// jobs.
	flight *flight
	// done is closed when the job reaches a terminal status.
	done chan struct{}
}

// checkpointCycles is the cycle stamp of the job's flight's latest
// progress sample, or what the journal recorded for a recovered
// finished job.
func (j *job) checkpointCycles() int64 {
	if j.flight != nil {
		return j.flight.cycles
	}
	return j.cycles
}

// flight is the one queued or running simulation of a cache key and
// the submissions attached to it. Identical submissions attach to the
// key's flight instead of simulating twice (singleflight); it runs
// while any of them still wants the result.
type flight struct {
	bench   string
	cfg     minnow.Config
	key     string
	keyJSON []byte
	// status is queued, running, or the terminal status the run ended
	// with.
	status string
	// cancel, when set, is observed by the running simulation's cancel
	// hook within one poll interval; the run stops with
	// minnow.ErrCanceled and writes nothing to the cache.
	cancel atomic.Bool
	// jobs are the live submissions attached to the flight, oldest
	// first. The oldest sets the flight's queue place and names it in the
	// journal. A submission canceled alone leaves the list; the rest end
	// with the run.
	jobs []*job
	// index is the flight's slot in the queue heap; -1 when not queued.
	index int

	// subs are live stream subscribers; lastSample is replayed to late
	// ones so a slow client still sees where the run is.
	subs       []chan ProgressEvent
	lastSample *ProgressEvent
	// cycles is the simulated cycle stamp of the latest interval sample,
	// journaled every checkpointEverySamples samples; samples counts
	// them.
	cycles  int64
	samples int64
	// ckpts are the trace instants of journaled progress checkpoints,
	// capped at maxTraceCheckpoints.
	ckpts []tracing.Instant

	// execStartAt→execEndAt is execution; cacheWriteDur times the cache
	// Put (0 when nothing was written).
	execStartAt   time.Time
	execEndAt     time.Time
	cacheWriteDur time.Duration
}

// flightQueue is the pending-flight priority heap. A flight takes the
// place of its oldest live submission: higher Priority first,
// submission order within a priority level.
type flightQueue []*flight

// Len reports the number of queued flights (container/heap interface).
func (q flightQueue) Len() int { return len(q) }

// Less orders the heap: higher priority first, then submission order.
func (q flightQueue) Less(i, j int) bool {
	a, b := q[i].jobs[0], q[j].jobs[0]
	if a.priority != b.priority {
		return a.priority > b.priority
	}
	return a.seq < b.seq
}

// Swap exchanges two queue slots (container/heap interface).
func (q flightQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index, q[j].index = i, j
}

// Push appends a flight for heap.Push (container/heap interface).
func (q *flightQueue) Push(x any) {
	f := x.(*flight)
	f.index = len(*q)
	*q = append(*q, f)
}

// Pop removes and returns the last slot for heap.Pop (container/heap
// interface).
func (q *flightQueue) Pop() any {
	old := *q
	f := old[len(old)-1]
	f.index = -1
	*q = old[:len(old)-1]
	return f
}

// histLabels is the label schema shared by every latency histogram:
// the job's terminal status and its cache outcome.
var histLabels = []string{"status", "cache"}

// cacheOutcome labels how a submission was satisfied: "hit" (stored
// cache), "coalesced" (singleflight), or "miss" (fresh simulation —
// including jobs canceled or failed before producing one).
func cacheOutcome(j *job) string {
	switch {
	case j.onto != "":
		return "coalesced"
	case j.cached:
		return "hit"
	}
	return "miss"
}

// sanitizeCorr normalizes a client-supplied correlation ID: control
// characters (which could forge flight-recorder JSONL or journal lines
// in log-viewing tools) are dropped, invalid UTF-8 becomes U+FFFD, and
// the length is capped at 128 bytes, cut at a rune boundary.
func sanitizeCorr(corr string) string {
	corr = strings.Map(func(r rune) rune {
		if r < 0x20 || r == 0x7f {
			return -1
		}
		return r
	}, corr)
	if len(corr) > 128 {
		n := 128
		for !utf8.RuneStart(corr[n]) {
			n--
		}
		corr = corr[:n]
	}
	return corr
}

// RecoveryStats summarizes what a journal replay reconstructed at
// startup (Server.Recovery).
type RecoveryStats struct {
	// Requeued is how many never-completed jobs went back on the queue.
	Requeued int
	// Completed is how many replayed jobs were served straight from the
	// cache (their own done record, or an identical job's entry).
	Completed int
	// Terminal is how many jobs were restored in a failed or canceled
	// state (registered for GET /jobs/{id}, nothing re-run).
	Terminal int
}

// Server is one minnowd instance: HTTP façade, priority queue, worker
// shards, the content-addressed result cache, and the optional durable
// job journal.
type Server struct {
	cfg    Config
	shards int
	cache  *cache.Cache
	jl     *journal.Journal

	// recorder is the crash flight recorder; always on (events are a few
	// dozen bytes), sized by Config.FlightRecEvents, dumped to
	// Config.TraceDir on panic, watchdog halt, or SIGTERM.
	recorder *tracing.FlightRecorder
	// Latency histograms served on /metrics, labeled by terminal status
	// and cache outcome (hit/coalesced/miss).
	hQueueWait  *tracing.HistVec
	hExec       *tracing.HistVec
	hSojourn    *tracing.HistVec
	hCacheWrite *tracing.HistVec

	mu       sync.Mutex
	cond     *sync.Cond
	queue    flightQueue
	jobs     map[string]*job    // by ID
	inflight map[string]*flight // singleflight: key → queued/running flight
	seq      int64
	busy     int
	draining bool
	m        counters
	rec      RecoveryStats

	wg sync.WaitGroup // worker shards
}

// New builds a Server, opens (or creates) the disk cache when
// Config.CacheDir is set and the journal when Config.JournalPath is
// set, replays the journal — re-enqueueing never-completed jobs and
// serving completed ones from the cache — and starts the worker shards.
// Callers serve its Handler and eventually call Shutdown.
func New(cfg Config) (*Server, error) {
	shards, intra := minnow.SplitBudget(cfg.Shards, cfg.IntraJobs)
	cfg.IntraJobs = intra
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = 65536
	}
	s := &Server{
		cfg:      cfg,
		shards:   shards,
		cache:    cache.New(),
		jobs:     make(map[string]*job),
		inflight: make(map[string]*flight),
		recorder: tracing.NewFlightRecorder(cfg.FlightRecEvents),
		hQueueWait: tracing.NewHistVec("minnowd_queue_wait_seconds",
			"Submit-to-dispatch queue wait (for jobs that never ran, submit-to-terminal).", histLabels, nil),
		hExec: tracing.NewHistVec("minnowd_exec_seconds",
			"Dispatch-to-completion simulation time.", histLabels, nil),
		hSojourn: tracing.NewHistVec("minnowd_sojourn_seconds",
			"Submit-to-terminal job sojourn time.", histLabels, nil),
		hCacheWrite: tracing.NewHistVec("minnowd_cache_write_seconds",
			"Result cache Put latency (disk persistence included).", histLabels, nil),
	}
	if cfg.CacheDir != "" {
		c, err := cache.NewDisk(cfg.CacheDir)
		if err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
		s.cache = c
	}
	if cfg.CacheMaxBytes > 0 {
		s.cache.SetBudget(cfg.CacheMaxBytes)
	}
	s.cond = sync.NewCond(&s.mu)
	if cfg.JournalPath != "" {
		t0 := time.Now()
		jl, recs, err := journal.Open(cfg.JournalPath)
		if err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
		s.jl = jl
		// Startup compaction: rewrite the journal down to the replayed
		// survivors, so it never grows across restarts — unless it already
		// holds exactly those records, as after a restart with nothing new.
		// A failed rewrite leaves the old (complete) journal in place —
		// durability bookkeeping degrades, startup never fails.
		compact, unchanged := s.replay(recs)
		rewrite := !unchanged || !jl.Intact()
		if rewrite {
			if err := jl.Rewrite(compact); err != nil {
				s.m.journalErrs++
				s.recorder.Record(tracing.Event{Kind: "journal-error", Detail: "startup compaction rewrite failed"})
			}
		}
		s.recorder.Record(tracing.Event{Kind: "replay", Detail: fmt.Sprintf(
			"requeued=%d completed=%d terminal=%d read=%d kept=%d rewritten=%v ms=%.3f",
			s.rec.Requeued, s.rec.Completed, s.rec.Terminal, len(recs), len(compact), rewrite,
			float64(time.Since(t0).Microseconds())/1e3)})
	}
	for i := 0; i < shards; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// replay reconstructs jobs from journal records: terminal jobs (up to
// replayTerminalCap, newest first) are re-registered so GET /jobs/{id}
// keeps answering, done jobs keep their journaled hash and attach their
// cache entry when first read (attachEntries), and never-completed jobs
// go back on the queue (coalescing duplicates exactly like live
// submissions). It returns the compacted record set — one folded
// terminal record per finished job (journal.Record.Folded), and a
// submit record plus its latest checkpoint per unfinished one — and
// whether that set equals recs, record for record, in which case New
// leaves the journal file as it is. Replaying the compacted journal
// reconstructs the identical state, which keeps a double restart a
// no-op — the idempotency the recovery test pins. Both the live form (a
// submit record, then the terminal one) and the folded form replay. A
// job's terminal record is final: replay ignores the records that
// follow it for that ID, and compaction drops them. Only requeued jobs
// get a flight. Runs before the worker shards start, so no lock is
// needed.
func (s *Server) replay(recs []journal.Record) (compact []journal.Record, unchanged bool) {
	type state struct {
		id      string
		submit  journal.Record
		last    journal.Op
		cycles  int64
		samples int64
		hash    string
		errMsg  string
		// final is the cycle stamp a terminal record carries: the
		// job's last progress sample, later than the last checkpoint.
		final int64
		// Wall-clock stamps restored into the job's lifecycle trace:
		// dispatch, latest checkpoint, and terminal time (Unix nanos).
		startAt int64
		ckptAt  int64
		termAt  int64
	}
	// states holds one state per job in journal order, indexed by ID;
	// a job has at least one record, so len(recs) bounds both.
	states := make([]state, 0, len(recs))
	index := make(map[string]int, len(recs))
	for _, r := range recs {
		i, ok := index[r.ID]
		if !ok {
			switch {
			case r.Op == journal.OpSubmit:
				states = append(states, state{id: r.ID, submit: r})
			case r.Folded():
				states = append(states, state{id: r.ID, submit: journal.Record{Op: journal.OpSubmit, ID: r.ID,
					Bench: r.Bench, Key: r.Key, Priority: r.Priority, At: r.SubmitAt, Corr: r.Corr}})
			default:
				continue // start/terminal for a submit lost to a torn line
			}
			i = len(states) - 1
			index[r.ID] = i
		}
		st := &states[i]
		if st.last.Terminal() {
			// A terminal record is final: a later start or checkpoint (a
			// flight journaling under a submission already canceled)
			// must not make the job unfinished again.
			continue
		}
		st.last = r.Op
		switch r.Op {
		case journal.OpStart:
			st.startAt = r.At
		case journal.OpCheckpoint:
			st.cycles, st.samples, st.ckptAt = r.Cycles, r.Samples, r.At
		case journal.OpDone:
			st.hash, st.termAt = r.Hash, r.At
		case journal.OpFailed, journal.OpCanceled:
			st.errMsg, st.termAt = r.Error, r.At
		}
		if r.Op.Terminal() {
			// Terminal records carry the dispatch stamp of the start
			// record compaction drops.
			if r.StartAt != 0 {
				st.startAt = r.StartAt
			}
			st.final = r.Cycles
		}
	}
	// Cap terminal re-registration: count the terminal jobs, then skip
	// the oldest beyond the cap. Even a dropped job's ID still advances
	// s.seq, so new submissions never reuse it.
	dropTerminal := -replayTerminalCap
	for i := range states {
		if states[i].last.Terminal() {
			dropTerminal++
		}
	}
	// keep appends one record to the compacted set, noting whether the
	// set still matches recs so far. A job keeps at most as many records
	// as it has, so len(recs) bounds the set.
	compact = make([]journal.Record, 0, len(recs))
	s.jobs = make(map[string]*job, len(states)) // still empty: replay runs first
	unchanged = true
	keep := func(r journal.Record) {
		if unchanged && (len(compact) == len(recs) || !recs[len(compact)].Equal(r)) {
			unchanged = false
		}
		compact = append(compact, r)
	}
	for i := range states {
		st := &states[i]
		id := st.id
		if n, err := strconv.ParseInt(strings.TrimPrefix(id, "j-"), 10, 64); err == nil && n > s.seq {
			s.seq = n
		}
		if st.last.Terminal() && dropTerminal > 0 {
			dropTerminal--
			continue
		}
		cycles := max(st.cycles, st.final)
		if st.last.Terminal() {
			// Finished: one folded record, submit fields and outcome
			// together. The spec is dropped; a finished job never re-runs.
			r := journal.Record{Op: st.last, ID: id, Bench: st.submit.Bench, Key: st.submit.Key,
				Priority: st.submit.Priority, At: st.termAt, Corr: st.submit.Corr,
				StartAt: st.startAt, SubmitAt: st.submit.At, Cycles: cycles}
			if st.last == journal.OpDone {
				r.Hash = st.hash
			} else {
				r.Error = st.errMsg
			}
			keep(r)
		} else {
			keep(st.submit)
			// Never finished: keep the latest progress stamp so the
			// compacted journal still says how far the lost run got.
			if st.cycles > 0 || st.samples > 0 {
				keep(journal.Record{Op: journal.OpCheckpoint, ID: id, Cycles: st.cycles, Samples: st.samples, At: st.ckptAt})
			}
		}
		// Restore the original submission time, so latency metrics for
		// recovered jobs span the crash instead of restarting the clock
		// at replay.
		queuedAt := time.Unix(0, st.submit.At)
		if st.submit.At == 0 {
			queuedAt = time.Now()
		}
		j := &job{
			id:        id,
			bench:     st.submit.Bench,
			key:       st.submit.Key,
			corr:      st.submit.Corr,
			priority:  st.submit.Priority,
			recovered: true,
			journaled: true,
			cycles:    cycles,
			queuedAt:  queuedAt,
			done:      make(chan struct{}),
		}
		// Restore the lifecycle stamps the journal preserved, so the
		// job's trace and latency metrics span the crash.
		if st.startAt != 0 && st.last.Terminal() {
			j.startedAt = time.Unix(0, st.startAt)
		}
		if st.termAt != 0 {
			j.doneAt = time.Unix(0, st.termAt)
		}
		s.jobs[id] = j
		switch st.last {
		case journal.OpDone:
			j.status, j.cached, j.hash, j.unattached = StatusDone, true, st.hash, true
			s.rec.Completed++
			close(j.done)
		case journal.OpFailed, journal.OpCanceled:
			j.status, j.errMsg = string(st.last), st.errMsg
			s.rec.Terminal++
			close(j.done)
		default: // submit, start, or checkpoint: the job never finished
			var spec ConfigSpec
			if err := json.Unmarshal(st.submit.Spec, &spec); err != nil {
				j.status = StatusFailed
				j.errMsg = "service: journal spec unreadable: " + err.Error()
				s.rec.Terminal++
				close(j.done)
				continue
			}
			cfg := spec.ToConfig()
			j.seq = s.seq // preserves journal order within a priority
			// Re-key under the running schema: after a key-version bump
			// the journaled key names no entry this server would write.
			var keyJSON []byte
			j.key, keyJSON = CacheKey(j.bench, cfg)
			// An identical job may have completed while this one was
			// lost: replay checks the cache exactly like a fresh Submit.
			if e, ok := s.cache.Get(j.key); ok && e.Covers(cfg.Timeline, cfg.Profile) {
				j.status, j.cached, j.entry = StatusDone, true, e
				s.rec.Completed++
				close(j.done)
				continue
			}
			f := s.flightForLocked(j.bench, cfg, j.key, keyJSON)
			if len(f.jobs) == 0 {
				// A new flight resumes the lost run's progress report.
				f.cycles, f.samples = cycles, st.samples
				if st.cycles > 0 && st.ckptAt != 0 {
					f.ckpts = append(f.ckpts, tracing.Instant{Name: "checkpoint", At: time.Unix(0, st.ckptAt), Arg: st.cycles})
				}
			}
			s.attachLocked(j, f)
			s.placeLocked(f)
			s.rec.Requeued++
		}
	}
	return compact, unchanged && len(compact) == len(recs)
}

// Recovery returns what the startup journal replay reconstructed
// (zero-valued when no journal is configured).
func (s *Server) Recovery() RecoveryStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rec
}

// Shards returns the worker pool width the server resolved at startup.
func (s *Server) Shards() int { return s.shards }

// Cache exposes the result store (tests and operators inspect it).
func (s *Server) Cache() *cache.Cache { return s.cache }

// journalLocked appends one record, counting (never propagating)
// failures: durability degrades, the job still runs. Callers hold s.mu.
func (s *Server) journalLocked(r journal.Record, sync bool) {
	if s.jl == nil {
		return
	}
	if err := s.jl.Append(r, sync); err != nil {
		s.m.journalErrs++
	}
}

// Shutdown drains the server: new submissions are refused with 503,
// worker shards finish every already-accepted job (queued and running),
// then exit, and the journal is closed. If ctx expires first,
// still-queued jobs are canceled and ctx's error is returned; jobs
// mid-simulation cannot be interrupted beyond their watchdog bound.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.cond.Broadcast()
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() { s.wg.Wait(); close(drained) }()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		s.mu.Lock()
		for s.queue.Len() > 0 {
			f := heap.Pop(&s.queue).(*flight)
			s.finalizeLocked(f, StatusCanceled, nil, "service: canceled by shutdown")
		}
		s.cond.Broadcast()
		s.mu.Unlock()
		<-drained
		err = ctx.Err()
	}
	if s.jl != nil {
		// The final fsync is the last durability promise: a failure is
		// counted like any other journal error and returned.
		if cerr := s.jl.Close(); cerr != nil {
			s.mu.Lock()
			s.m.journalErrs++
			s.mu.Unlock()
			err = errors.Join(err, fmt.Errorf("service: close journal: %w", cerr))
		}
	}
	return err
}

// Submit validates and registers one job, returning its API view. The
// fast paths — validation failure, cache hit, singleflight coalesce —
// never add to the queue. Accepted jobs (queued and coalesced) are
// journaled with an fsync before the call returns, so the submission
// survives a crash from the moment the API acknowledges it; the fsync
// happens outside s.mu (see journalAccepted) so per-submit disk
// latency never serializes unrelated API handlers. Born-done cache
// hits are not journaled (the response already carried the result, and
// replaying one would pointlessly re-register it).
func (s *Server) Submit(spec JobSpec) (JobView, error) {
	if !slices.Contains(minnow.Benchmarks(), spec.Bench) {
		return JobView{}, &RequestError{Code: 400, Msg: fmt.Sprintf("service: Bench: unknown benchmark %q (have %v)", spec.Bench, minnow.Benchmarks())}
	}
	cfg := spec.Config.ToConfig()
	// Server-side defaults: the per-job watchdog timeout participates in
	// the cache key (it can change outcomes), so it is resolved before
	// hashing; the sampling cadence and bound/weave width are inert and
	// resolved purely for operational quality.
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = s.cfg.MaxCycles
	}
	if cfg.MetricsEvery == 0 {
		cfg.MetricsEvery = s.cfg.ProgressEvery
	}
	if cfg.IntraJobs == 0 {
		cfg.IntraJobs = s.cfg.IntraJobs
	}
	if err := cfg.Validate(); err != nil {
		return JobView{}, &RequestError{Code: 400, Msg: err.Error()}
	}
	key, keyJSON := CacheKey(spec.Bench, cfg)

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return JobView{}, &RequestError{Code: 503, Msg: "service: draining, not accepting jobs", RetryAfter: 5}
	}
	s.seq++
	j := &job{
		id:       fmt.Sprintf("j-%d", s.seq),
		bench:    spec.Bench,
		key:      key,
		corr:     sanitizeCorr(spec.Corr),
		priority: spec.Priority,
		seq:      s.seq,
		queuedAt: time.Now(),
		done:     make(chan struct{}),
	}
	if j.corr == "" {
		// Server-generated correlation ID: unique per submission and
		// greppable across the flight recorder, journal, and trace.
		j.corr = fmt.Sprintf("c-%d-%x", s.seq, j.queuedAt.UnixNano())
	}
	s.jobs[j.id] = j
	s.m.submitted++
	s.recorder.Record(tracing.Event{Kind: "submit", Job: j.id, Corr: j.corr, Detail: spec.Bench})

	// Cache hit: born done, no simulation.
	if e, ok := s.cache.Get(key); ok && e.Covers(cfg.Timeline, cfg.Profile) {
		s.m.hits++
		j.cached = true
		s.recorder.Record(tracing.Event{Kind: "cache-hit", Job: j.id, Corr: j.corr})
		s.finishLocked(j, StatusDone, e, "", time.Now())
		v := s.viewLocked(j, false)
		s.mu.Unlock()
		return v, nil
	}
	// Singleflight: an identical submission is already queued or
	// running; attach to its flight instead of simulating twice.
	f := s.flightForLocked(spec.Bench, cfg, key, keyJSON)
	if len(f.jobs) == 0 && s.queue.Len() >= s.cfg.QueueLimit {
		delete(s.jobs, j.id)
		s.m.submitted--
		n := s.queue.Len()
		s.mu.Unlock()
		return JobView{}, &RequestError{Code: 429, Msg: fmt.Sprintf("service: queue full (%d jobs)", n), RetryAfter: 1}
	}
	s.attachLocked(j, f)
	if j.onto != "" {
		s.m.coalesced++
		s.recorder.Record(tracing.Event{Kind: "coalesce", Job: j.id, Corr: j.corr, Detail: "onto " + j.onto})
	}
	s.mu.Unlock()
	return s.journalAccepted(j, cfg)
}

// flightForLocked returns the queued or running flight of key when it
// covers a submission of cfg — the same Timeline and Profile, so a
// timeline-requesting duplicate of a timeline-less run simulates
// separately (and upgrades the cache entry they share) — and otherwise
// a new queued flight, which attachLocked registers. Callers hold s.mu.
func (s *Server) flightForLocked(bench string, cfg minnow.Config, key string, keyJSON []byte) *flight {
	if f, ok := s.inflight[key]; ok && f.cfg.Timeline == cfg.Timeline && f.cfg.Profile == cfg.Profile {
		return f
	}
	return &flight{bench: bench, cfg: cfg, key: key, keyJSON: keyJSON, status: StatusQueued, index: -1}
}

// attachLocked attaches a submission to the flight flightForLocked
// returned: a new flight takes its key's singleflight slot, and a job
// joining a live one coalesces onto it. Callers hold s.mu.
func (s *Server) attachLocked(j *job, f *flight) {
	if len(f.jobs) == 0 {
		s.inflight[f.key] = f
	} else {
		j.onto, j.cached = f.jobs[0].id, true
		if f.status == StatusRunning {
			// The flight is already dispatched: this job starts the
			// moment it attaches, never before it was submitted — the
			// flight's earlier dispatch would read as a negative queue
			// wait on the job's stamps and histograms.
			j.startedAt = j.queuedAt
		}
	}
	j.status, j.flight = f.status, f
	f.jobs = append(f.jobs, j)
}

// placeLocked puts a queued flight where its oldest live submission
// belongs: a flight left with no live submission leaves the queue and
// its singleflight slot, a queued one moves to its oldest submission's
// place, and one not yet queued joins the queue once that submission's
// submit record is journaled, so the worker shards never see a flight
// before the submission it runs under. Callers hold s.mu.
func (s *Server) placeLocked(f *flight) {
	switch {
	case len(f.jobs) == 0:
		if f.index >= 0 {
			heap.Remove(&s.queue, f.index)
		}
		s.finalizeLocked(f, StatusCanceled, nil, "")
	case f.index >= 0:
		heap.Fix(&s.queue, f.index)
	case f.jobs[0].journaled:
		heap.Push(&s.queue, f)
		s.cond.Signal()
	}
}

// journalAccepted records an accepted submission in the journal —
// fsync'd, but outside s.mu, so per-submit fsync latency never
// serializes unrelated API handlers — then, back under the lock, marks
// the job journaled and places its flight (placeLocked). Between
// registration and the append the job is cancellable and its flight
// coalescable, but a flight waits for its oldest submission's append
// before it runs, so a start record never precedes that submission's
// submit record. A job that reached a terminal status while the append
// was in flight — client cancel, or its flight resolving — had its
// terminal record skipped (journaled was still false); it is written
// here, after the submit record, so replay never resurrects it.
func (s *Server) journalAccepted(j *job, cfg minnow.Config) (JobView, error) {
	var appendErr error
	if s.jl != nil {
		appendErr = s.jl.Append(submitRecord(j, cfg), true)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if appendErr != nil {
		s.m.journalErrs++
	}
	j.journaled = true
	switch {
	case Terminal(j.status):
		s.journalLocked(terminalRecord(j), true)
	case j.flight.status == StatusQueued:
		s.placeLocked(j.flight)
	}
	return s.viewLocked(j, false), nil
}

// terminalRecord builds a finished submission's journal record: its
// outcome, its terminal and dispatch stamps, and the cycle stamp of its
// flight's last progress sample (what the view reports as
// checkpoint_cycles), so a restart serves the same view. The terminal
// statuses are spelled as their journal ops. Callers hold s.mu.
func terminalRecord(j *job) journal.Record {
	r := journal.Record{Op: journal.Op(j.status), ID: j.id, At: j.doneAt.UnixNano(),
		StartAt: unixOrZero(j.startedAt), Cycles: j.checkpointCycles()}
	switch {
	case j.status != StatusDone:
		r.Error = j.errMsg
	case j.entry != nil:
		r.Hash = j.entry.SummaryHash
	}
	return r
}

// submitRecord builds a job's journal submit record from the job and
// its submitted configuration: everything replay needs to re-run it
// without the original HTTP request.
func submitRecord(j *job, cfg minnow.Config) journal.Record {
	spec, err := json.Marshal(ConfigSpec(cfg))
	if err != nil {
		spec = nil // the func hooks are json:"-"; Marshal cannot fail
	}
	return journal.Record{
		Op:       journal.OpSubmit,
		ID:       j.id,
		Bench:    j.bench,
		Key:      j.key,
		Corr:     j.corr,
		Priority: j.priority,
		At:       j.queuedAt.UnixNano(),
		Spec:     spec,
	}
}

// unixOrZero renders a lifecycle stamp for the journal: Unix nanos, or
// 0 for the zero time (the job never reached that lifecycle point).
func unixOrZero(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// Cancel cancels one submission. Cancellation is per-submission: the
// job detaches from its flight and ends canceled at once, and the
// flight keeps its place for the submissions still attached — a queued
// flight re-sorts to its oldest live submission's place and leaves the
// queue when none is left. The one exception is the last live
// submission of a running flight: the flight's cancel flag is set, the
// simulation observes it within one cancel-poll interval, stops, and
// writes nothing to the cache, and the submission ends with the flight
// (canceled, or done if the run finished before the poll); the flight
// leaves its key's singleflight slot at once, so a duplicate submitted
// meanwhile never joins the stopping run. Terminal
// jobs are returned unchanged (idempotent); unknown IDs return 404.
func (s *Server) Cancel(id string) (JobView, error) {
	j, ok := s.lockJob(id)
	defer s.mu.Unlock()
	if !ok {
		return JobView{}, &RequestError{Code: 404, Msg: "service: unknown job " + id}
	}
	if Terminal(j.status) {
		return s.viewLocked(j, false), nil
	}
	f := j.flight
	if f.status == StatusRunning && len(f.jobs) == 1 {
		f.cancel.Store(true)
		// A stopping flight takes no new submission: it leaves its key's
		// singleflight slot now, so a duplicate runs a flight of its own.
		if s.inflight[f.key] == f {
			delete(s.inflight, f.key)
		}
		return s.viewLocked(j, false), nil
	}
	f.jobs = slices.DeleteFunc(f.jobs, func(x *job) bool { return x == j })
	s.finishLocked(j, StatusCanceled, nil, "service: canceled by client", time.Now())
	if f.status == StatusQueued {
		s.placeLocked(f)
	}
	return s.viewLocked(j, false), nil
}

// finishLocked moves one submission to a terminal status at now:
// outcome, metrics, its journal record, and its done channel. Callers
// hold s.mu.
func (s *Server) finishLocked(j *job, status string, e *cache.Entry, errMsg string, now time.Time) {
	j.status, j.entry, j.errMsg, j.doneAt = status, e, errMsg, now
	s.observeTerminalLocked(j)
	if j.journaled {
		s.journalLocked(terminalRecord(j), true)
	}
	close(j.done)
}

// observeTerminalLocked records one submission reaching its terminal
// status into the counters, the latency histograms (labeled by status
// and cache outcome), and the flight recorder. Callers hold s.mu and
// must have stamped j.doneAt.
func (s *Server) observeTerminalLocked(j *job) {
	status := j.status
	d := j.doneAt.Sub(j.queuedAt)
	s.m.observe(status)
	outcome := cacheOutcome(j)
	s.hSojourn.Observe(d.Seconds(), status, outcome)
	if !j.startedAt.IsZero() {
		s.hQueueWait.Observe(j.startedAt.Sub(j.queuedAt).Seconds(), status, outcome)
		if f := j.flight; f != nil && !f.execEndAt.IsZero() {
			// A job can attach in the window between the flight's
			// exec-end stamp and finalize; it rode none of the flight.
			s.hExec.Observe(max(f.execEndAt.Sub(j.startedAt), 0).Seconds(), status, outcome)
		}
	} else if outcome == "miss" {
		// Never dispatched (canceled in queue, refused result): the whole
		// sojourn was queue wait. Born-done cache hits skip this — they
		// never queued at all.
		s.hQueueWait.Observe(d.Seconds(), status, outcome)
	}
	s.recorder.Record(tracing.Event{Kind: status, Job: j.id, Corr: j.corr, Detail: j.errMsg})
}

// Job returns the API view of one job; full includes the complete
// minnow.Result JSON (artifacts and all).
func (s *Server) Job(id string, full bool) (JobView, bool) {
	j, ok := s.lockJob(id)
	defer s.mu.Unlock()
	if !ok {
		return JobView{}, false
	}
	return s.viewLocked(j, full), true
}

// lockJob looks a job up by ID and returns with s.mu held, whether or
// not it was found. A recovered done job gets its cache entry attached
// first (attachEntries), so the caller can render it.
func (s *Server) lockJob(id string) (*job, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if ok && j.unattached {
		s.mu.Unlock()
		s.attachEntries([]*job{j})
		s.mu.Lock()
	}
	return j, ok
}

// attachEntries looks up the cache entries of recovered done jobs that
// nothing has read since replay registered them, and attaches them. A
// lookup may read the disk cache, so it runs without s.mu, which
// callers must not hold. A miss attaches nothing: the view then carries
// the journaled hash alone, as for an entry evicted before the restart.
func (s *Server) attachEntries(js []*job) {
	es := make([]*cache.Entry, len(js))
	for i, j := range js {
		es[i], _ = s.cache.Get(j.key) // key is fixed once replay returns
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, j := range js {
		if j.unattached {
			j.entry, j.unattached = es[i], false
		}
	}
}

// Jobs lists every job's view (no results), newest first.
func (s *Server) Jobs() []JobView {
	s.mu.Lock()
	var unattached []*job
	for _, j := range s.jobs {
		if j.unattached {
			unattached = append(unattached, j)
		}
	}
	if len(unattached) > 0 {
		s.mu.Unlock()
		s.attachEntries(unattached)
		s.mu.Lock()
	}
	defer s.mu.Unlock()
	out := make([]JobView, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, s.viewLocked(j, false))
	}
	slices.SortFunc(out, func(a, b JobView) int {
		if a.ID == b.ID {
			return 0
		}
		if len(a.ID) != len(b.ID) { // j-2 < j-10
			return len(b.ID) - len(a.ID)
		}
		if a.ID < b.ID {
			return 1
		}
		return -1
	})
	return out
}

// Subscribe attaches a progress listener to a job's stream, replaying
// the most recent sample first. The returned channel is closed when the
// job's flight ends or cancel is called; it is buffered and lossy — a
// slow reader misses samples, never stalls the simulation. ok is false
// for unknown job IDs.
func (s *Server) Subscribe(id string) (ch <-chan ProgressEvent, done <-chan struct{}, cancel func(), ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, found := s.jobs[id]
	if !found {
		return nil, nil, nil, false
	}
	f := j.flight
	c := make(chan ProgressEvent, 16)
	if f != nil && f.lastSample != nil {
		c <- *f.lastSample
	}
	if Terminal(j.status) { // a live job's flight is live too
		close(c)
		return c, j.done, func() {}, true
	}
	f.subs = append(f.subs, c)
	cancel = func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if i := slices.Index(f.subs, c); i >= 0 {
			f.subs = slices.Delete(f.subs, i, i+1)
			close(c)
		}
	}
	return c, j.done, cancel, true
}

// worker is one shard: it pulls the highest-priority queued flight and
// simulates it, until shutdown drains the queue. A panic escaping the
// service layer itself (simulation panics are already contained by the
// harness) dumps the flight recorder before taking the process down, so
// the post-mortem survives.
func (s *Server) worker() {
	defer s.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			s.DumpFlight("panic") //nolint:errcheck // crashing; the dump is best-effort
			panic(r)
		}
	}()
	for {
		s.mu.Lock()
		for s.queue.Len() == 0 && !s.draining {
			s.cond.Wait()
		}
		if s.queue.Len() == 0 {
			s.mu.Unlock()
			return
		}
		f := heap.Pop(&s.queue).(*flight)
		f.status = StatusRunning
		now := time.Now()
		for _, j := range f.jobs {
			j.status, j.startedAt = StatusRunning, now
		}
		s.busy++
		s.m.sims++
		lead := f.jobs[0]
		s.journalLocked(journal.Record{Op: journal.OpStart, ID: lead.id, At: now.UnixNano()}, false)
		s.recorder.Record(tracing.Event{Kind: "start", Job: lead.id, Corr: lead.corr})
		s.mu.Unlock()

		s.execute(f)

		s.mu.Lock()
		s.busy--
		s.mu.Unlock()
	}
}

// execute runs one flight through minnow.RunMany — the same
// harness.RunJobs worker machinery the sweep tools use, so a panicking
// simulation becomes a per-job error with a stack trace instead of
// killing the shard — then caches and finalizes. The flight's cancel
// flag is wired to the simulator's cooperative cancel hook: a DELETE of
// its last live submission flips the flag and the run stops within one
// poll interval, caching nothing.
func (s *Server) execute(f *flight) {
	cfg := f.cfg
	cfg.Cancel = f.cancel.Load
	if cfg.MetricsEvery > 0 {
		cfg.OnSample = func(cycles int64, metrics string) {
			s.publish(f, ProgressEvent{Cycles: cycles, Metrics: metrics})
		}
	}
	s.mu.Lock()
	f.execStartAt = time.Now()
	s.mu.Unlock()
	res := minnow.RunMany([]minnow.RunRequest{{Benchmark: f.bench, Config: cfg}}, 1)[0]

	s.mu.Lock()
	f.execEndAt = time.Now()
	// A running flight keeps its last live submission until it ends, so
	// there is always one to name it.
	lead := f.jobs[0]
	switch {
	case errors.Is(res.Err, minnow.ErrCanceled):
		s.finalizeLocked(f, StatusCanceled, nil, "service: canceled by client")
	case res.Err != nil:
		s.finalizeLocked(f, StatusFailed, nil, res.Err.Error())
	default:
		s.storeLocked(f, lead, res.Result)
	}
	s.mu.Unlock()
	// A watchdog halt or a contained simulation panic is exactly the
	// post-mortem the flight recorder exists for: dump it.
	if res.Err != nil {
		if msg := res.Err.Error(); strings.Contains(msg, "watchdog") {
			s.DumpFlight("watchdog") //nolint:errcheck // best-effort post-mortem
		} else if strings.Contains(msg, "panicked") {
			s.DumpFlight("panic") //nolint:errcheck // best-effort post-mortem
		}
	}
	s.persistTrace(lead)
}

// storeLocked caches a finished run's result and finalizes its flight:
// done, or failed when the result does not marshal or its hash
// conflicts with the cached entry — a determinism violation, surfaced
// on the jobs rather than serving either result silently. lead names
// the flight in the flight recorder. Callers hold s.mu.
func (s *Server) storeLocked(f *flight, lead *job, r *minnow.Result) {
	resultJSON, err := json.Marshal(r)
	if err != nil {
		s.finalizeLocked(f, StatusFailed, nil, "service: marshal result: "+err.Error())
		return
	}
	e := &cache.Entry{
		Key:         f.key,
		Bench:       f.bench,
		KeyJSON:     json.RawMessage(f.keyJSON),
		SummaryHash: r.SummaryHash,
		Summary:     json.RawMessage(r.SummaryJSON),
		Result:      json.RawMessage(resultJSON),
		HasTimeline: len(r.TimelineJSON) > 0,
		HasProfile:  r.ProfilePprof != nil || r.Folded != "",
	}
	putStart := time.Now()
	putErr := s.cache.Put(e)
	f.cacheWriteDur = time.Since(putStart)
	s.recorder.Record(tracing.Event{Kind: "cache-write", Job: lead.id, Corr: lead.corr,
		Detail: fmt.Sprintf("%v err=%v", f.cacheWriteDur.Round(time.Microsecond), putErr != nil)})
	if putErr != nil {
		s.m.conflicts++
		s.hCacheWrite.Observe(f.cacheWriteDur.Seconds(), StatusFailed, cacheOutcome(lead))
		s.finalizeLocked(f, StatusFailed, nil, putErr.Error())
		return
	}
	s.hCacheWrite.Observe(f.cacheWriteDur.Seconds(), StatusDone, cacheOutcome(lead))
	s.finalizeLocked(f, StatusDone, e, "")
}

// persistTrace writes an executed job's merged lifecycle trace to
// Config.TraceDir (no-op when unset). Called after the flight finalizes
// with no locks held — trace persistence is best-effort and must never
// stall a worker shard on disk latency while holding s.mu.
func (s *Server) persistTrace(j *job) {
	if s.cfg.TraceDir == "" {
		return
	}
	b, ok := s.Trace(j.id)
	if !ok {
		return
	}
	if err := os.MkdirAll(s.cfg.TraceDir, 0o755); err != nil {
		s.recorder.Record(tracing.Event{Kind: "trace-error", Job: j.id, Corr: j.corr, Detail: err.Error()})
		return
	}
	path := filepath.Join(s.cfg.TraceDir, j.id+".trace.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		s.recorder.Record(tracing.Event{Kind: "trace-error", Job: j.id, Corr: j.corr, Detail: err.Error()})
		return
	}
	s.recorder.Record(tracing.Event{Kind: "trace-write", Job: j.id, Corr: j.corr, Detail: path})
}

// Trace renders one job's merged lifecycle trace: the service-level
// spans (queue wait, dispatch, exec, cache write) and, when the job's
// cached result carries a simulator timeline (Config.Timeline), the
// run's own Perfetto events — one Chrome-trace JSON file for
// ui.perfetto.dev. Works on live jobs too (open spans close at "now").
// ok is false for unknown IDs.
func (s *Server) Trace(id string) ([]byte, bool) {
	j, ok := s.lockJob(id)
	if !ok {
		s.mu.Unlock()
		return nil, false
	}
	t := s.jobTraceLocked(j, time.Now())
	entry := j.entry
	s.mu.Unlock()

	// Extract the sim timeline outside the lock: Result can be large.
	var sim []byte
	if entry != nil && entry.HasTimeline {
		var r struct{ TimelineJSON []byte }
		if err := json.Unmarshal(entry.Result, &r); err == nil {
			sim = r.TimelineJSON
		}
	}
	return t.Render(sim), true
}

// jobTraceLocked assembles one job's lifecycle spans and instants. A
// job times its own queue wait but takes the exec stamps and
// checkpoints from its flight — the simulation it observed. A
// recovered finished job has no flight: the dispatch and terminal
// stamps its journal kept bound its exec span. Callers hold s.mu.
func (s *Server) jobTraceLocked(j *job, now time.Time) *tracing.JobTrace {
	t := &tracing.JobTrace{
		ID: j.id, Corr: j.corr, Bench: j.bench, Status: j.status,
		Base: j.queuedAt,
	}
	end := j.doneAt
	if end.IsZero() {
		end = now
	}
	t.Spans = append(t.Spans, tracing.Span{Name: "job", Start: j.queuedAt, End: end, Detail: cacheOutcome(j)})
	f := j.flight
	if !j.startedAt.IsZero() {
		t.Spans = append(t.Spans, tracing.Span{Name: "queue-wait", Start: j.queuedAt, End: j.startedAt})
		execStart, execEnd, cacheWrite := j.startedAt, j.doneAt, time.Duration(0)
		if f != nil {
			execStart, execEnd, cacheWrite = f.execStartAt, f.execEndAt, f.cacheWriteDur
		}
		if !execStart.IsZero() {
			// A job that attached mid-execution has no dispatch of its
			// own, and its exec span covers only the stretch of the
			// flight it actually rode.
			if execStart.Before(j.startedAt) {
				execStart = j.startedAt
			} else {
				t.Spans = append(t.Spans, tracing.Span{Name: "dispatch", Start: j.startedAt, End: execStart})
			}
			if execEnd.IsZero() {
				execEnd = end // still running: open span closes at "now"
			}
			t.Spans = append(t.Spans, tracing.Span{Name: "exec", Start: execStart, End: execEnd})
			if cacheWrite > 0 {
				t.Spans = append(t.Spans, tracing.Span{Name: "cache-write", Start: execEnd, End: execEnd.Add(cacheWrite)})
			}
		}
	} else if Terminal(j.status) {
		// Never dispatched: the whole sojourn was queue wait (or, for a
		// born-done hit, the cache lookup itself).
		if !j.cached || j.onto != "" {
			t.Spans = append(t.Spans, tracing.Span{Name: "queue-wait", Start: j.queuedAt, End: end})
		}
	}
	if j.cached && j.onto == "" && j.startedAt.IsZero() {
		t.Instants = append(t.Instants, tracing.Instant{Name: "cache-hit", At: j.queuedAt})
	}
	if j.onto != "" {
		t.Instants = append(t.Instants, tracing.Instant{Name: "coalesced", At: j.queuedAt, Detail: "onto " + j.onto})
	}
	if f != nil {
		t.Instants = append(t.Instants, f.ckpts...)
	}
	if Terminal(j.status) && j.status != StatusDone {
		t.Instants = append(t.Instants, tracing.Instant{Name: j.status, At: end, Detail: j.errMsg})
	}
	return t
}

// DumpFlight writes the flight recorder to Config.TraceDir as a
// flightrec-<reason>-*.jsonl post-mortem file, returning its path. A
// no-op (empty path, nil error) when TraceDir is unset — the in-memory
// ring and GET /debug/flightrec still work, there is just nowhere to
// dump.
func (s *Server) DumpFlight(reason string) (string, error) {
	if s.cfg.TraceDir == "" {
		return "", nil
	}
	return s.recorder.DumpFile(s.cfg.TraceDir, reason)
}

// FlightRecorder exposes the crash ring buffer (the /debug/flightrec
// endpoint and tests read it).
func (s *Server) FlightRecorder() *tracing.FlightRecorder { return s.recorder }

// publish fans one progress sample out to a flight's stream
// subscribers and advances the journal's progress checkpoint, which
// names the flight's oldest live submission. Runs on the simulation
// goroutine: copy under the lock, non-blocking sends, nothing else.
func (s *Server) publish(f *flight, ev ProgressEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f.lastSample = &ev
	f.cycles = ev.Cycles
	f.samples++
	if f.samples%checkpointEverySamples == 0 {
		now := time.Now()
		lead := f.jobs[0]
		// Unsynced: a lost checkpoint only loses a progress report — the
		// job re-runs after a crash either way.
		s.journalLocked(journal.Record{
			Op: journal.OpCheckpoint, ID: lead.id,
			Cycles: ev.Cycles, Samples: f.samples, At: now.UnixNano(),
		}, false)
		if len(f.ckpts) < maxTraceCheckpoints {
			f.ckpts = append(f.ckpts, tracing.Instant{Name: "checkpoint", At: now, Arg: ev.Cycles})
		}
		s.recorder.Record(tracing.Event{Kind: "checkpoint", Job: lead.id, Corr: lead.corr, Cycles: ev.Cycles, At: now.UnixNano()})
	}
	for _, c := range f.subs {
		select {
		case c <- ev:
		default: // lossy: never stall the simulation on a slow reader
		}
	}
}

// finalizeLocked ends a flight with a terminal status: every live
// submission attached to it finishes with that outcome (finishLocked),
// the singleflight slot is released, and stream subscriptions close.
// Callers hold s.mu.
func (s *Server) finalizeLocked(f *flight, status string, e *cache.Entry, errMsg string) {
	if s.inflight[f.key] == f {
		delete(s.inflight, f.key)
	}
	f.status = status
	now := time.Now()
	for _, j := range f.jobs {
		s.finishLocked(j, status, e, errMsg, now)
	}
	f.jobs = nil
	for _, c := range f.subs {
		close(c)
	}
	f.subs = nil
}

// viewLocked renders a job's API view. Callers hold s.mu.
func (s *Server) viewLocked(j *job, full bool) JobView {
	v := JobView{
		ID:               j.id,
		Corr:             j.corr,
		Bench:            j.bench,
		Key:              j.key,
		Status:           j.status,
		Cached:           j.cached,
		Coalesced:        j.onto != "",
		Recovered:        j.recovered,
		CheckpointCycles: j.checkpointCycles(),
		Priority:         j.priority,
		Error:            j.errMsg,
		QueuedAtNS:       unixOrZero(j.queuedAt),
		StartedAtNS:      unixOrZero(j.startedAt),
		DoneAtNS:         unixOrZero(j.doneAt),
	}
	if j.entry != nil {
		v.SummaryHash = j.entry.SummaryHash
		v.Summary = j.entry.Summary
		if full {
			v.Result = j.entry.Result
		}
	} else if j.hash != "" {
		// Recovered done job whose cache entry was since evicted: the
		// hash survives in the journal even though the payload is gone.
		v.SummaryHash = j.hash
	}
	return v
}

// RequestError is an API error with its HTTP status code.
type RequestError struct {
	// Code is the HTTP status to serve.
	Code int
	// Msg is the plain-text body (for validation failures, the
	// minnow.Config.Validate message verbatim).
	Msg string
	// RetryAfter, when positive, is served as a Retry-After header (in
	// seconds) so well-behaved clients back off instead of hot-looping
	// on 429 (queue full) and 503 (draining).
	RetryAfter int
}

// Error returns the message.
func (e *RequestError) Error() string { return e.Msg }
