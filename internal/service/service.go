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

// job is the server-side record of one submission.
type job struct {
	id       string
	bench    string
	cfg      minnow.Config
	key      string
	keyJSON  []byte
	priority int
	seq      int64
	// corr is the job's correlation ID: client-supplied (JobSpec.Corr or
	// the X-Correlation-ID header) or server-generated, threaded through
	// every lifecycle span, flight-recorder event, and journal submit
	// record so one ID follows the job from HTTP accept to terminal.
	corr string

	status    string
	cached    bool
	coalesced bool
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

	// Lifecycle stamps backing the job's trace spans and latency
	// histograms: queuedAt→startedAt is queue wait, startedAt→execStartAt
	// is shard dispatch (config prep and hook wiring), execStartAt→
	// execEndAt is execution, and cacheWriteDur times the cache Put.
	// startedAt is stamped on coalesced followers too (the flight's
	// pickup); the exec stamps live on the primary.
	queuedAt    time.Time
	startedAt   time.Time
	execStartAt time.Time
	execEndAt   time.Time
	doneAt      time.Time
	// cacheWriteDur is how long the flight's cache Put took (primary
	// only; 0 when nothing was written).
	cacheWriteDur time.Duration
	// ckpts are the trace instants of journaled progress checkpoints
	// (primary only), capped at maxTraceCheckpoints.
	ckpts []tracing.Instant

	// cancelFlag, when set, is observed by the running simulation's
	// cancel hook within one poll interval; the run stops with
	// minnow.ErrCanceled and writes nothing to the cache.
	cancelFlag atomic.Bool
	// flightStatus is the status of the underlying simulation flight
	// (primary only). It diverges from status when the primary's own
	// submission is canceled while coalesced followers keep the
	// simulation alive — new duplicates coalesce against flightStatus.
	flightStatus string
	// checkpointCycles is the simulated cycle stamp of the latest
	// interval sample (primary only), journaled every
	// checkpointEverySamples samples.
	checkpointCycles int64
	// samples counts interval samples seen (primary only).
	samples int64

	// primary, when non-nil, is the in-flight job this submission
	// coalesced onto (singleflight follower).
	primary *job
	// followers are coalesced duplicates finalized with this job's
	// outcome (primary only).
	followers []*job
	// subs are live stream subscribers (primary only; followers
	// subscribe through primary).
	subs []chan ProgressEvent
	// lastSample is replayed to late stream subscribers so a slow client
	// still sees where the run is.
	lastSample *ProgressEvent
	// done is closed when the job reaches a terminal status.
	done chan struct{}
}

// jobQueue is the pending-job priority heap: higher Priority first,
// submission order within a priority level.
type jobQueue []*job

// Len reports the number of queued jobs (container/heap interface).
func (q jobQueue) Len() int { return len(q) }

// Less orders the heap: higher priority first, then submission order.
func (q jobQueue) Less(i, j int) bool {
	if q[i].priority != q[j].priority {
		return q[i].priority > q[j].priority
	}
	return q[i].seq < q[j].seq
}

// Swap exchanges two queue slots (container/heap interface).
func (q jobQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

// Push appends a job for heap.Push (container/heap interface).
func (q *jobQueue) Push(x any) { *q = append(*q, x.(*job)) }

// Pop removes and returns the last slot for heap.Pop (container/heap
// interface).
func (q *jobQueue) Pop() any { old := *q; n := len(old); x := old[n-1]; *q = old[:n-1]; return x }

// histLabels is the label schema shared by every latency histogram:
// the job's terminal status and its cache outcome.
var histLabels = []string{"status", "cache"}

// cacheOutcome labels how a submission was satisfied: "hit" (stored
// cache), "coalesced" (singleflight), or "miss" (fresh simulation —
// including jobs canceled or failed before producing one).
func cacheOutcome(j *job) string {
	switch {
	case j.coalesced:
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

	// flight is the crash flight recorder; always on (events are a few
	// dozen bytes), sized by Config.FlightRecEvents, dumped to
	// Config.TraceDir on panic, watchdog halt, or SIGTERM.
	flight *tracing.FlightRecorder
	// Latency histograms served on /metrics, labeled by terminal status
	// and cache outcome (hit/coalesced/miss).
	hQueueWait  *tracing.HistVec
	hExec       *tracing.HistVec
	hSojourn    *tracing.HistVec
	hCacheWrite *tracing.HistVec

	mu       sync.Mutex
	cond     *sync.Cond
	queue    jobQueue
	jobs     map[string]*job // by ID
	inflight map[string]*job // singleflight: key → queued/running primary
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
		inflight: make(map[string]*job),
		flight:   tracing.NewFlightRecorder(cfg.FlightRecEvents),
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
				s.flight.Record(tracing.Event{Kind: "journal-error", Detail: "startup compaction rewrite failed"})
			}
		}
		s.flight.Record(tracing.Event{Kind: "replay", Detail: fmt.Sprintf(
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
// submit record, then the terminal one) and the folded form replay.
// Runs before the worker shards start, so no lock is needed.
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
			id:               id,
			bench:            st.submit.Bench,
			key:              st.submit.Key,
			corr:             st.submit.Corr,
			priority:         st.submit.Priority,
			recovered:        true,
			journaled:        true,
			checkpointCycles: cycles,
			samples:          st.samples,
			queuedAt:         queuedAt,
			done:             make(chan struct{}),
		}
		// Restore the lifecycle stamps the journal preserved, so the
		// job's trace and latency metrics span the crash.
		if st.startAt != 0 && st.last.Terminal() {
			j.startedAt = time.Unix(0, st.startAt)
			j.execStartAt = j.startedAt
		}
		if st.termAt != 0 {
			j.doneAt = time.Unix(0, st.termAt)
		}
		if st.cycles > 0 && st.ckptAt != 0 {
			j.ckpts = append(j.ckpts, tracing.Instant{Name: "checkpoint", At: time.Unix(0, st.ckptAt), Arg: st.cycles})
		}
		s.jobs[id] = j
		switch st.last {
		case journal.OpDone:
			j.status, j.flightStatus = StatusDone, StatusDone
			j.cached, j.hash, j.unattached = true, st.hash, true
			s.rec.Completed++
			close(j.done)
		case journal.OpFailed:
			j.status, j.flightStatus = StatusFailed, StatusFailed
			j.errMsg = st.errMsg
			s.rec.Terminal++
			close(j.done)
		case journal.OpCanceled:
			j.status, j.flightStatus = StatusCanceled, StatusCanceled
			j.errMsg = st.errMsg
			s.rec.Terminal++
			close(j.done)
		default: // submit, start, or checkpoint: the job never finished
			var spec ConfigSpec
			if err := json.Unmarshal(st.submit.Spec, &spec); err != nil {
				j.status, j.flightStatus = StatusFailed, StatusFailed
				j.errMsg = "service: journal spec unreadable: " + err.Error()
				s.rec.Terminal++
				close(j.done)
				continue
			}
			j.cfg = spec.ToConfig()
			j.seq = s.seq // preserves journal order within a priority
			// Re-key under the running schema: after a key-version bump
			// the journaled key names no entry this server would write.
			j.key, j.keyJSON = CacheKey(j.bench, j.cfg)
			// An identical job may have completed while this one was
			// lost: replay checks the cache exactly like a fresh Submit.
			if e, ok := s.cache.Get(j.key); ok && e.Covers(j.cfg.Timeline, j.cfg.Profile) {
				j.status, j.flightStatus = StatusDone, StatusDone
				j.cached = true
				j.entry = e
				s.rec.Completed++
				close(j.done)
				continue
			}
			if p, ok := s.inflight[j.key]; ok && p.cfg.Timeline == j.cfg.Timeline && p.cfg.Profile == j.cfg.Profile {
				j.coalesced, j.cached = true, true
				j.primary = p
				j.status = StatusQueued
				p.followers = append(p.followers, j)
				s.rec.Requeued++
				continue
			}
			j.status, j.flightStatus = StatusQueued, StatusQueued
			s.inflight[j.key] = j
			heap.Push(&s.queue, j)
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
			j := heap.Pop(&s.queue).(*job)
			s.finalizeLocked(j, StatusCanceled, nil, "service: canceled by shutdown")
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
// never touch the queue. Accepted jobs (queued and coalesced) are
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
		cfg:      cfg,
		key:      key,
		keyJSON:  keyJSON,
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
	s.flight.Record(tracing.Event{Kind: "submit", Job: j.id, Corr: j.corr, Detail: spec.Bench})

	// Cache hit: born done, no simulation.
	if e, ok := s.cache.Get(key); ok && e.Covers(cfg.Timeline, cfg.Profile) {
		s.m.hits++
		j.cached = true
		s.flight.Record(tracing.Event{Kind: "cache-hit", Job: j.id, Corr: j.corr})
		s.finalizeLocked(j, StatusDone, e, "")
		v := s.viewLocked(j, false)
		s.mu.Unlock()
		return v, nil
	}
	// Singleflight: an identical submission is already queued or
	// running; attach to it instead of simulating twice. The primary
	// must cover this job's artifact needs — a timeline-requesting
	// duplicate of a timeline-less run simulates separately (and
	// upgrades the cache entry it shares). Coalescing keys off the
	// flight's status, not the primary's own — a primary whose
	// submission was canceled can still be carrying a live simulation
	// for its followers.
	if p, ok := s.inflight[key]; ok && p.cfg.Timeline == cfg.Timeline && p.cfg.Profile == cfg.Profile {
		s.m.coalesced++
		j.coalesced, j.cached = true, true
		j.primary = p
		j.status = p.flightStatus
		if p.flightStatus == StatusRunning {
			// The flight is already dispatched: this follower starts the
			// moment it attaches, never before it was submitted — the
			// primary's earlier pickup would read as a negative queue
			// wait on the follower's stamps and histograms.
			j.startedAt = j.queuedAt
		}
		p.followers = append(p.followers, j)
		s.flight.Record(tracing.Event{Kind: "coalesce", Job: j.id, Corr: j.corr, Detail: "onto " + p.id})
		s.mu.Unlock()
		return s.journalAccepted(j, false)
	}

	if s.queue.Len() >= s.cfg.QueueLimit {
		delete(s.jobs, j.id)
		s.m.submitted--
		n := s.queue.Len()
		s.mu.Unlock()
		return JobView{}, &RequestError{Code: 429, Msg: fmt.Sprintf("service: queue full (%d jobs)", n), RetryAfter: 1}
	}
	j.status, j.flightStatus = StatusQueued, StatusQueued
	s.inflight[key] = j
	s.mu.Unlock()
	return s.journalAccepted(j, true)
}

// journalAccepted records an accepted submission in the journal —
// fsync'd, but outside s.mu, so per-submit fsync latency never
// serializes unrelated API handlers — then, back under the lock, marks
// the job journaled and (for the queue path) makes it visible to the
// worker shards. Between registration and the append the job is
// cancellable and (as a singleflight target) coalescable but not yet
// runnable, so a start or done record can never precede its submit
// record. A job that reached a terminal status while the append was in
// flight — client cancel, or its coalesced flight resolving — had its
// terminal record skipped (journaled was still false); it is written
// here, after the submit record, so replay never resurrects it.
func (s *Server) journalAccepted(j *job, enqueue bool) (JobView, error) {
	var appendErr error
	if s.jl != nil {
		appendErr = s.jl.Append(s.submitRecord(j), true)
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
	case enqueue:
		heap.Push(&s.queue, j)
		s.cond.Signal()
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
		StartAt: unixOrZero(j.startedAt), Cycles: j.checkpointCycles}
	if j.primary != nil {
		r.Cycles = j.primary.checkpointCycles
	}
	switch {
	case j.status != StatusDone:
		r.Error = j.errMsg
	case j.entry != nil:
		r.Hash = j.entry.SummaryHash
	}
	return r
}

// submitRecord builds a job's journal submit record: everything replay
// needs to re-run it without the original HTTP request.
func (s *Server) submitRecord(j *job) journal.Record {
	spec, err := json.Marshal(ConfigSpec(j.cfg))
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

// Cancel cancels one job. Queued jobs (and coalesced followers) leave
// the queue immediately; a running job's simulation observes its cancel
// flag within one cancel-poll interval, stops, and writes nothing to
// the cache. Cancellation is per-submission: canceling a job that
// identical submissions coalesced onto detaches only the canceling
// submission — the simulation keeps running for the survivors (a queued
// carrier hands its flight to the oldest follower). Terminal jobs are
// returned unchanged (idempotent); unknown IDs return 404.
func (s *Server) Cancel(id string) (JobView, error) {
	j, ok := s.lockJob(id)
	defer s.mu.Unlock()
	if !ok {
		return JobView{}, &RequestError{Code: 404, Msg: "service: unknown job " + id}
	}
	if Terminal(j.status) {
		return s.viewLocked(j, false), nil
	}
	const reason = "service: canceled by client"
	switch {
	case j.primary != nil:
		// Follower: detach from the flight and finalize alone.
		p := j.primary
		if i := slices.Index(p.followers, j); i >= 0 {
			p.followers = slices.Delete(p.followers, i, i+1)
		}
		s.cancelJobLocked(j, reason)
		// If the carrier's own submission was already canceled and this
		// was the last live follower, nobody wants the flight: stop it.
		if Terminal(p.status) && !s.flightLiveLocked(p) {
			if p.flightStatus == StatusRunning {
				p.cancelFlag.Store(true)
			} else {
				s.dequeueLocked(p)
				delete(s.inflight, p.key)
				p.flightStatus = StatusCanceled
			}
		}
	case j.status == StatusQueued && len(j.followers) > 0:
		// Queued carrier with followers: the flight must still run. Hand
		// it to the oldest follower and cancel only this submission.
		f := j.followers[0]
		rest := j.followers[1:]
		j.followers = nil
		f.primary = nil
		f.followers = append(f.followers, rest...)
		for _, x := range rest {
			x.primary = f
		}
		f.status, f.flightStatus = StatusQueued, StatusQueued
		f.lastSample = j.lastSample
		f.subs = append(f.subs, j.subs...)
		j.subs = nil
		s.dequeueLocked(j)
		heap.Push(&s.queue, f)
		s.inflight[j.key] = f
		s.cancelJobLocked(j, reason)
		s.cond.Signal()
	case j.status == StatusQueued:
		// Queued, nobody else attached: gone immediately.
		s.dequeueLocked(j)
		delete(s.inflight, j.key)
		j.flightStatus = StatusCanceled
		s.cancelJobLocked(j, reason)
	default: // running primary
		if s.flightLiveLocked(j) {
			// Followers still want the result: cancel only this
			// submission, keep simulating.
			s.cancelJobLocked(j, reason)
		} else {
			// Sole interested party: stop the simulation. execute()
			// observes minnow.ErrCanceled and finalizes the flight;
			// status stays "running" until the poll fires.
			j.cancelFlag.Store(true)
		}
	}
	return s.viewLocked(j, false), nil
}

// flightLiveLocked reports whether any follower of p still wants p's
// result (is non-terminal). Callers hold s.mu.
func (s *Server) flightLiveLocked(p *job) bool {
	for _, f := range p.followers {
		if !Terminal(f.status) {
			return true
		}
	}
	return false
}

// dequeueLocked removes a job from the pending heap if present.
// Callers hold s.mu.
func (s *Server) dequeueLocked(j *job) {
	for i, x := range s.queue {
		if x == j {
			heap.Remove(&s.queue, i)
			return
		}
	}
}

// cancelJobLocked finalizes one submission as canceled — terminal
// status, journal record, metrics — without touching the flight it may
// have been attached to. Callers hold s.mu.
func (s *Server) cancelJobLocked(j *job, reason string) {
	j.status = StatusCanceled
	j.errMsg = reason
	j.doneAt = time.Now()
	s.observeTerminalLocked(j, StatusCanceled)
	if j.journaled {
		s.journalLocked(terminalRecord(j), true)
	}
	close(j.done)
}

// observeTerminalLocked records one submission reaching a terminal
// status into the counters, the latency histograms (labeled by status
// and cache outcome), and the flight recorder. Callers hold s.mu and
// must have stamped j.doneAt.
func (s *Server) observeTerminalLocked(j *job, status string) {
	d := j.doneAt.Sub(j.queuedAt)
	s.m.observe(status)
	outcome := cacheOutcome(j)
	s.hSojourn.Observe(d.Seconds(), status, outcome)
	if !j.startedAt.IsZero() {
		s.hQueueWait.Observe(j.startedAt.Sub(j.queuedAt).Seconds(), status, outcome)
		end := j.execEndAt
		if j.primary != nil && !j.primary.execEndAt.IsZero() {
			end = j.primary.execEndAt
		}
		if !end.IsZero() {
			// A follower can attach in the window between the primary's
			// exec-end stamp and finalize; it rode none of the flight.
			s.hExec.Observe(max(end.Sub(j.startedAt), 0).Seconds(), status, outcome)
		}
	} else if outcome == "miss" {
		// Never dispatched (canceled in queue, refused result): the whole
		// sojourn was queue wait. Born-done cache hits skip this — they
		// never queued at all.
		s.hQueueWait.Observe(d.Seconds(), status, outcome)
	}
	s.flight.Record(tracing.Event{Kind: status, Job: j.id, Corr: j.corr, Detail: j.errMsg})
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
// job completes (terminal status) or cancel is called; it is buffered
// and lossy — a slow reader misses samples, never stalls the simulation.
// ok is false for unknown job IDs.
func (s *Server) Subscribe(id string) (ch <-chan ProgressEvent, done <-chan struct{}, cancel func(), ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, found := s.jobs[id]
	if !found {
		return nil, nil, nil, false
	}
	target := j
	if j.primary != nil {
		target = j.primary
	}
	c := make(chan ProgressEvent, 16)
	if target.lastSample != nil {
		c <- *target.lastSample
	}
	if Terminal(target.flightStatus) || Terminal(j.status) {
		close(c)
		return c, j.done, func() {}, true
	}
	target.subs = append(target.subs, c)
	cancel = func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		for i, sub := range target.subs {
			if sub == c {
				target.subs = append(target.subs[:i], target.subs[i+1:]...)
				close(c)
				break
			}
		}
	}
	return c, j.done, cancel, true
}

// worker is one shard: it pulls the highest-priority queued job and
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
		j := heap.Pop(&s.queue).(*job)
		j.flightStatus = StatusRunning
		j.startedAt = time.Now()
		if !Terminal(j.status) {
			j.status = StatusRunning
		}
		for _, f := range j.followers {
			if !Terminal(f.status) {
				f.status = StatusRunning
				f.startedAt = j.startedAt
			}
		}
		s.busy++
		s.m.sims++
		s.journalLocked(journal.Record{Op: journal.OpStart, ID: j.id, At: j.startedAt.UnixNano()}, false)
		s.flight.Record(tracing.Event{Kind: "start", Job: j.id, Corr: j.corr})
		s.mu.Unlock()

		s.execute(j)

		s.mu.Lock()
		s.busy--
		s.mu.Unlock()
	}
}

// execute runs one primary job through minnow.RunMany — the same
// harness.RunJobs worker machinery the sweep tools use, so a panicking
// simulation becomes a per-job error with a stack trace instead of
// killing the shard — then caches and finalizes. The job's cancel flag
// is wired to the simulator's cooperative cancel hook: a DELETE flips
// the flag and the run stops within one poll interval, caching nothing.
func (s *Server) execute(j *job) {
	cfg := j.cfg
	cfg.Cancel = j.cancelFlag.Load
	if cfg.MetricsEvery > 0 {
		cfg.OnSample = func(cycles int64, metrics string) {
			s.publish(j, ProgressEvent{Cycles: cycles, Metrics: metrics})
		}
	}
	s.mu.Lock()
	j.execStartAt = time.Now()
	s.mu.Unlock()
	res := minnow.RunMany([]minnow.RunRequest{{Benchmark: j.bench, Config: cfg}}, 1)[0]

	s.mu.Lock()
	j.execEndAt = time.Now()
	if errors.Is(res.Err, minnow.ErrCanceled) {
		s.finalizeLocked(j, StatusCanceled, nil, "service: canceled by client")
		s.mu.Unlock()
		s.persistTrace(j)
		return
	}
	if res.Err != nil {
		s.finalizeLocked(j, StatusFailed, nil, res.Err.Error())
		s.mu.Unlock()
		// A watchdog halt or a contained simulation panic is exactly the
		// post-mortem the flight recorder exists for: dump it.
		msg := res.Err.Error()
		if strings.Contains(msg, "watchdog") {
			s.DumpFlight("watchdog") //nolint:errcheck // best-effort post-mortem
		} else if strings.Contains(msg, "panicked") {
			s.DumpFlight("panic") //nolint:errcheck // best-effort post-mortem
		}
		s.persistTrace(j)
		return
	}
	resultJSON, err := json.Marshal(res.Result)
	if err != nil {
		s.finalizeLocked(j, StatusFailed, nil, "service: marshal result: "+err.Error())
		s.mu.Unlock()
		s.persistTrace(j)
		return
	}
	if Terminal(j.status) && !s.flightLiveLocked(j) {
		// The run finished before the cancel poll could stop it, but
		// every attached submission is already canceled: discard the
		// result without caching — a canceled flight never writes.
		s.finalizeLocked(j, StatusCanceled, nil, "")
		s.mu.Unlock()
		s.persistTrace(j)
		return
	}
	e := &cache.Entry{
		Key:         j.key,
		Bench:       j.bench,
		KeyJSON:     json.RawMessage(j.keyJSON),
		SummaryHash: res.Result.SummaryHash,
		Summary:     json.RawMessage(res.Result.SummaryJSON),
		Result:      json.RawMessage(resultJSON),
		HasTimeline: len(res.Result.TimelineJSON) > 0,
		HasProfile:  res.Result.ProfilePprof != nil || res.Result.Folded != "",
	}
	putStart := time.Now()
	putErr := s.cache.Put(e)
	j.cacheWriteDur = time.Since(putStart)
	s.flight.Record(tracing.Event{Kind: "cache-write", Job: j.id, Corr: j.corr,
		Detail: fmt.Sprintf("%v err=%v", j.cacheWriteDur.Round(time.Microsecond), putErr != nil)})
	if putErr != nil {
		// A hash conflict is a determinism violation: surface it on the
		// job rather than serving either result silently.
		s.m.conflicts++
		s.hCacheWrite.Observe(j.cacheWriteDur.Seconds(), StatusFailed, cacheOutcome(j))
		s.finalizeLocked(j, StatusFailed, nil, putErr.Error())
		s.mu.Unlock()
		s.persistTrace(j)
		return
	}
	s.hCacheWrite.Observe(j.cacheWriteDur.Seconds(), StatusDone, cacheOutcome(j))
	s.finalizeLocked(j, StatusDone, e, "")
	s.mu.Unlock()
	s.persistTrace(j)
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
		s.flight.Record(tracing.Event{Kind: "trace-error", Job: j.id, Corr: j.corr, Detail: err.Error()})
		return
	}
	path := filepath.Join(s.cfg.TraceDir, j.id+".trace.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		s.flight.Record(tracing.Event{Kind: "trace-error", Job: j.id, Corr: j.corr, Detail: err.Error()})
		return
	}
	s.flight.Record(tracing.Event{Kind: "trace-write", Job: j.id, Corr: j.corr, Detail: path})
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

// jobTraceLocked assembles one job's lifecycle spans and instants.
// Followers time their own queue wait but borrow the primary's exec
// stamps and checkpoints — the simulation they observed ran there.
// Callers hold s.mu.
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
	p := j
	if j.primary != nil {
		p = j.primary
	}
	if !j.startedAt.IsZero() {
		t.Spans = append(t.Spans, tracing.Span{Name: "queue-wait", Start: j.queuedAt, End: j.startedAt})
		execStart, execEnd := p.execStartAt, p.execEndAt
		if !execStart.IsZero() {
			// A follower that attached mid-execution has no dispatch of
			// its own, and its exec span covers only the stretch of the
			// primary's flight it actually rode.
			if execStart.Before(j.startedAt) {
				execStart = j.startedAt
			} else {
				t.Spans = append(t.Spans, tracing.Span{Name: "dispatch", Start: j.startedAt, End: execStart})
			}
			if execEnd.IsZero() {
				execEnd = end // still running: open span closes at "now"
			}
			t.Spans = append(t.Spans, tracing.Span{Name: "exec", Start: execStart, End: execEnd})
			if p.cacheWriteDur > 0 {
				t.Spans = append(t.Spans, tracing.Span{Name: "cache-write", Start: execEnd, End: execEnd.Add(p.cacheWriteDur)})
			}
		}
	} else if Terminal(j.status) {
		// Never dispatched: the whole sojourn was queue wait (or, for a
		// born-done hit, the cache lookup itself).
		if !j.cached || j.coalesced {
			t.Spans = append(t.Spans, tracing.Span{Name: "queue-wait", Start: j.queuedAt, End: end})
		}
	}
	if j.cached && !j.coalesced && j.startedAt.IsZero() {
		t.Instants = append(t.Instants, tracing.Instant{Name: "cache-hit", At: j.queuedAt})
	}
	if j.coalesced {
		t.Instants = append(t.Instants, tracing.Instant{Name: "coalesced", At: j.queuedAt, Detail: "onto " + p.id})
	}
	t.Instants = append(t.Instants, p.ckpts...)
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
	return s.flight.DumpFile(s.cfg.TraceDir, reason)
}

// FlightRecorder exposes the crash ring buffer (the /debug/flightrec
// endpoint and tests read it).
func (s *Server) FlightRecorder() *tracing.FlightRecorder { return s.flight }

// publish fans one progress sample out to a job's stream subscribers
// and advances the journal's progress checkpoint. Runs on the
// simulation goroutine: copy under the lock, non-blocking sends,
// nothing else.
func (s *Server) publish(j *job, ev ProgressEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.lastSample = &ev
	j.checkpointCycles = ev.Cycles
	j.samples++
	if j.samples%checkpointEverySamples == 0 {
		now := time.Now()
		// Unsynced: a lost checkpoint only loses a progress report — the
		// job re-runs after a crash either way.
		s.journalLocked(journal.Record{
			Op: journal.OpCheckpoint, ID: j.id,
			Cycles: ev.Cycles, Samples: j.samples, At: now.UnixNano(),
		}, false)
		if len(j.ckpts) < maxTraceCheckpoints {
			j.ckpts = append(j.ckpts, tracing.Instant{Name: "checkpoint", At: now, Arg: ev.Cycles})
		}
		s.flight.Record(tracing.Event{Kind: "checkpoint", Job: j.id, Corr: j.corr, Cycles: ev.Cycles, At: now.UnixNano()})
	}
	for _, c := range j.subs {
		select {
		case c <- ev:
		default: // lossy: never stall the simulation on a slow reader
		}
	}
}

// finalizeLocked moves a flight — primary and coalesced followers — to
// a terminal status, updates latency metrics, journals each
// submission's outcome, releases the singleflight slot, and closes
// stream subscriptions. Submissions already individually canceled are
// skipped. Callers hold s.mu.
func (s *Server) finalizeLocked(j *job, status string, e *cache.Entry, errMsg string) {
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	j.flightStatus = status
	all := append([]*job{j}, j.followers...)
	now := time.Now()
	for _, x := range all {
		if Terminal(x.status) {
			continue // canceled individually before the flight resolved
		}
		x.status = status
		x.entry = e
		x.errMsg = errMsg
		x.doneAt = now
		s.observeTerminalLocked(x, status)
		if x.journaled {
			s.journalLocked(terminalRecord(x), true)
		}
		close(x.done)
	}
	for _, c := range j.subs {
		close(c)
	}
	j.subs = nil
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
		Coalesced:        j.coalesced,
		Recovered:        j.recovered,
		CheckpointCycles: j.checkpointCycles,
		Priority:         j.priority,
		Error:            j.errMsg,
		QueuedAtNS:       unixOrZero(j.queuedAt),
		StartedAtNS:      unixOrZero(j.startedAt),
		DoneAtNS:         unixOrZero(j.doneAt),
	}
	if j.primary != nil {
		v.CheckpointCycles = j.primary.checkpointCycles
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
