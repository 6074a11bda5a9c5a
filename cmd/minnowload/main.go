// Command minnowload drives a running minnowd with a synthetic job
// stream and reports throughput, latency, and cache effectiveness. It
// replays a small sweep grid (benchmarks × seeds) with cycling
// duplicates, so a correctly deduplicating server converges to serving
// most submissions from the content-addressed cache.
//
// Two load shapes:
//
//   - closed loop (default): -clients workers each submit, wait for the
//     terminal status, then submit again — back-pressure bounded.
//   - open loop: -rate R submits R jobs/second regardless of completion,
//     the shape that exposes queueing collapse.
//
// Every completed job is checked client-side: the summary hash reported
// for a cache key must match every other completion of that key. A
// mismatch is a determinism violation in the server's cache and makes
// the run exit nonzero, as does -require-hits when the run finishes
// without a single deduplicated submission. CI runs a short smoke with
// -require-hits as the dedup-correctness gate (see docs/SERVICE.md).
//
// Backpressure responses (429 queue-full, 503 draining) are retried
// with exponential backoff and full jitter, honoring the server's
// Retry-After hint. -cancel-frac DELETEs a fraction of accepted jobs
// after a short random delay to exercise the cancellation path under
// load; those submissions are expected to end canceled.
//
// Requests go through service.Client: the clock starts once /healthz
// answers, and each job is followed on its event stream to the terminal
// view. Flag values that would crash the run or make it vacuous exit 2.
//
// Usage:
//
//	minnowload -addr http://127.0.0.1:8080 -duration 30s
//	minnowload -addr http://127.0.0.1:8080 -rate 20 -duration 1m -seeds 4
//	minnowload -addr http://127.0.0.1:8080 -duration 30s -cancel-frac 0.2
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"minnow/internal/service"
	"minnow/internal/stats"
)

// options are the run's flag values.
type options struct {
	clients, seeds   int
	rate, cancelFrac float64
	dur, wait        time.Duration
}

// check rejects flag values that would crash the run or make it
// vacuous: an empty grid divides by zero, a rate above 1e9/s rounds
// the submission interval to zero, and no clients or no time submit
// nothing and pass.
func (o options) check() error {
	switch {
	case o.seeds < 1:
		return fmt.Errorf("-seeds must be at least 1, got %d", o.seeds)
	case o.clients < 1:
		return fmt.Errorf("-clients must be at least 1, got %d", o.clients)
	case !(o.rate >= 0):
		return fmt.Errorf("-rate must be non-negative (0 = closed loop), got %g", o.rate)
	case o.rate > 0 && time.Duration(float64(time.Second)/o.rate) <= 0:
		return fmt.Errorf("-rate must be at most 1e9 submissions/s, got %g", o.rate)
	case !(o.cancelFrac >= 0 && o.cancelFrac <= 1):
		return fmt.Errorf("-cancel-frac must be in [0, 1], got %g", o.cancelFrac)
	case o.dur <= 0 || o.wait <= 0:
		return fmt.Errorf("-duration and -wait must be positive, got %v and %v", o.dur, o.wait)
	}
	return nil
}

func main() {
	var o options
	flag.DurationVar(&o.dur, "duration", 30*time.Second, "how long to keep submitting")
	flag.IntVar(&o.clients, "clients", 4, "closed-loop worker count (ignored with -rate)")
	flag.Float64Var(&o.rate, "rate", 0, "open-loop submissions per second (0 = closed loop)")
	flag.IntVar(&o.seeds, "seeds", 2, "distinct seeds per benchmark (grid size = benches × seeds; smaller grids repeat sooner and hit the cache harder)")
	flag.DurationVar(&o.wait, "wait", 5*time.Minute, "readiness wait, and per-job completion wait before counting it lost")
	flag.Float64Var(&o.cancelFrac, "cancel-frac", 0, "DELETE this fraction of accepted jobs after a short random delay (exercises the cancellation path; canceled terminals count as expected, not failures)")
	var (
		addr    = flag.String("addr", "http://127.0.0.1:8080", "minnowd base URL")
		benches = flag.String("benches", "SSSP,BFS", "comma-separated benchmark grid")
		threads = flag.Int("threads", 1, "simulated core count per job (keep small; every miss is a full simulation)")
		require = flag.Bool("require-hits", false, "exit nonzero unless at least one submission was served by cache hit or coalescing")
		arrival = flag.String("arrivals", "", "server-side open-loop arrival plan on every job: preset (steady, burst, waves, trickle) or clause expression; completions are checked for sane latency percentiles")
	)
	flag.Parse()
	if err := o.check(); err != nil {
		fmt.Fprintln(os.Stderr, "minnowload:", err)
		os.Exit(2)
	}

	grid := buildGrid(strings.Split(*benches, ","), o.seeds, *threads, *arrival)
	fmt.Printf("minnowload: %d-point grid against %s for %v\n", len(grid), *addr, o.dur)

	l := &loader{c: service.NewClient(*addr, nil), grid: grid, wait: o.wait, cancelFrac: o.cancelFrac,
		checkArrivals: *arrival != "",
		hashes:        make(map[string]string), statusSojourns: make(map[string][]time.Duration)}
	ctx, cancel := context.WithTimeout(context.Background(), o.wait)
	err := l.c.Ready(ctx)
	cancel()
	if err != nil {
		fmt.Fprintln(os.Stderr, "minnowload:", err)
		os.Exit(1)
	}
	deadline := time.Now().Add(o.dur)
	if o.rate > 0 {
		l.openLoop(o.rate, deadline)
	} else {
		l.closedLoop(o.clients, deadline)
	}
	if !l.report(*require) {
		os.Exit(1)
	}
}

// buildGrid expands the benchmark × seed sweep into job specs with
// their client-side cache keys. A non-empty arrivals plan is
// threaded onto every spec (and so into every client-side key — the
// server must agree, or the key cross-check below flags it).
func buildGrid(benches []string, seeds, threads int, arrivals string) []point {
	var grid []point
	for _, b := range benches {
		b = strings.TrimSpace(b)
		for s := 0; s < seeds; s++ {
			spec := service.JobSpec{Bench: b, Config: service.ConfigSpec{
				Threads: threads, Seed: 42 + uint64(s), Minnow: true, Prefetch: true,
				Arrivals: arrivals,
			}}
			key, _ := service.CacheKey(b, spec.Config.ToConfig())
			grid = append(grid, point{key: key, spec: spec})
		}
	}
	return grid
}

// point is one grid entry: the job and the cache key the client
// expects the server to file it under.
type point struct {
	key  string
	spec service.JobSpec
}

// loader runs the load shape and accumulates results.
type loader struct {
	c          *service.Client
	grid       []point
	wait       time.Duration
	cancelFrac float64
	// checkArrivals validates every completion's summary against the
	// open-loop latency contract (-arrivals was set): latency stats
	// present, injected == retired, and percentiles monotone.
	checkArrivals bool

	// corrSeq numbers the correlation IDs this run threads through its
	// submissions ("load-<n>", sent as X-Correlation-ID and verified
	// echoed on every view).
	corrSeq atomic.Int64

	mu        sync.Mutex
	submitted int
	cachedN   int // served with Cached or Coalesced set
	retries   int // submissions retried after a 429/503 backpressure response
	failures  []string
	// statusSojourns buckets client-observed sojourns by terminal status:
	// every completed (done) submission and every canceled one we
	// DELETEd; failures carry no useful latency.
	statusSojourns map[string][]time.Duration
	hashes         map[string]string // key → first summary hash seen
	mismatch       []string
}

// closedLoop runs n workers, each submit-wait-repeat until the deadline.
func (l *loader) closedLoop(n int, deadline time.Time) {
	var wg sync.WaitGroup
	var next atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				l.fail(l.one(l.grid[int(next.Add(1)-1)%len(l.grid)]))
			}
		}()
	}
	wg.Wait()
}

// openLoop submits at a fixed rate without waiting for completions,
// then waits for the stragglers.
func (l *loader) openLoop(rate float64, deadline time.Time) {
	tick := time.NewTicker(time.Duration(float64(time.Second) / rate))
	defer tick.Stop()
	var wg sync.WaitGroup
	for i := 0; time.Now().Before(deadline); i++ {
		<-tick.C
		p := l.grid[i%len(l.grid)]
		wg.Add(1)
		go func() { defer wg.Done(); l.fail(l.one(p)) }()
	}
	wg.Wait()
}

// one submits a single job, waits for its terminal status, and records
// the sojourn and the key→hash observation; an error is a lost
// submission. Each submission carries an X-Correlation-ID ("load-<n>")
// that the Client checks is echoed, and every terminal view's lifecycle
// stamps are validated (positive, ordered) — a zero or backwards stamp
// is a server tracing bug.
func (l *loader) one(p point) error {
	start := time.Now()
	l.mu.Lock()
	l.submitted++
	l.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), l.wait)
	defer cancel()

	corr := fmt.Sprintf("load-%d", l.corrSeq.Add(1))
	v, err := l.submit(ctx, p.spec, corr)
	if err != nil {
		return err
	}
	// Optionally exercise the cancellation path: DELETE a fraction of
	// accepted (not born-done) submissions after a short random delay.
	wantCancel := l.cancelFrac > 0 && !service.Terminal(v.Status) && rand.Float64() < l.cancelFrac
	if wantCancel {
		time.Sleep(time.Duration(rand.Int63n(int64(100 * time.Millisecond))))
		if _, err := l.c.Cancel(ctx, v.ID); err != nil {
			return err
		}
	}
	if !service.Terminal(v.Status) {
		id := v.ID
		if v, err = l.c.Wait(ctx, id, nil); err != nil && ctx.Err() != nil {
			return fmt.Errorf("%s: no terminal status within %v", id, l.wait)
		} else if err != nil {
			return err
		}
	}
	if err := checkStamps(v); err != nil {
		return err
	}
	if v.Status == service.StatusCanceled && wantCancel {
		// The expected terminal for a submission we DELETEd; it carries no
		// result, so it contributes nothing to the hash cross-check.
		l.mu.Lock()
		l.statusSojourns[v.Status] = append(l.statusSojourns[v.Status], time.Since(start))
		l.mu.Unlock()
		return nil
	}
	if v.Status != service.StatusDone {
		return fmt.Errorf("%s: terminal status %s: %s", v.ID, v.Status, v.Error)
	}
	if l.checkArrivals {
		if err := checkLatency(v); err != nil {
			return err
		}
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	l.statusSojourns[v.Status] = append(l.statusSojourns[v.Status], time.Since(start))
	if v.Cached || v.Coalesced {
		l.cachedN++
	}
	if v.Key != p.key {
		l.mismatch = append(l.mismatch, fmt.Sprintf("%s: server key %s != client key %s", v.ID, v.Key, p.key))
	}
	if prev, seen := l.hashes[p.key]; !seen {
		l.hashes[p.key] = v.SummaryHash
	} else if prev != v.SummaryHash {
		l.mismatch = append(l.mismatch, fmt.Sprintf("%s: key %s returned hash %s, previously %s", v.ID, p.key, v.SummaryHash, prev))
	}
	return nil
}

// submit submits one job through the Client, retrying backpressure
// refusals (429 queue-full, 503 draining) with exponential backoff and
// full jitter, honoring the server's Retry-After hint, until ctx ends.
func (l *loader) submit(ctx context.Context, spec service.JobSpec, corr string) (service.JobView, error) {
	backoff := 100 * time.Millisecond
	for {
		v, err := l.c.Submit(ctx, spec, corr)
		var re *service.RequestError
		if !errors.As(err, &re) || (re.Code != http.StatusTooManyRequests && re.Code != http.StatusServiceUnavailable) {
			return v, err
		}
		sleep := backoff
		if re.RetryAfter > 0 {
			sleep = time.Duration(re.RetryAfter) * time.Second
		}
		// Full jitter: a uniform draw in (0, sleep] decorrelates the
		// retry herd that a fixed Retry-After would synchronize.
		sleep = time.Duration(rand.Int63n(int64(sleep))) + time.Millisecond
		if dl, _ := ctx.Deadline(); time.Now().Add(sleep).After(dl) {
			return v, fmt.Errorf("%w, still refused after %v of backoff", err, l.wait)
		}
		l.mu.Lock()
		l.retries++
		l.mu.Unlock()
		time.Sleep(sleep)
		backoff = min(2*backoff, 5*time.Second)
	}
}

// checkStamps validates a terminal view's lifecycle timestamps: the
// submission and terminal stamps must be positive and ordered, and the
// dispatch stamp (when the job ran) must sit between them. A zero or
// negative stamp, or a backwards ordering, means the server's lifecycle
// tracing is broken.
func checkStamps(v service.JobView) error {
	if v.QueuedAtNS <= 0 || v.DoneAtNS <= 0 {
		return fmt.Errorf("%s: non-positive lifecycle stamps: queued_at_ns=%d done_at_ns=%d", v.ID, v.QueuedAtNS, v.DoneAtNS)
	}
	if v.DoneAtNS < v.QueuedAtNS {
		return fmt.Errorf("%s: terminal stamp precedes submission: queued_at_ns=%d done_at_ns=%d", v.ID, v.QueuedAtNS, v.DoneAtNS)
	}
	if v.StartedAtNS != 0 && (v.StartedAtNS < v.QueuedAtNS || v.StartedAtNS > v.DoneAtNS) {
		return fmt.Errorf("%s: dispatch stamp outside [submit, terminal]: queued_at_ns=%d started_at_ns=%d done_at_ns=%d",
			v.ID, v.QueuedAtNS, v.StartedAtNS, v.DoneAtNS)
	}
	return nil
}

// checkLatency validates a done view's open-loop latency block: every
// -arrivals completion must carry latency stats in its summary with
// conservation (injected == retired — the server ran the job to drain)
// and monotone percentiles (p50 ≤ p95 ≤ p99 for both queue wait and
// sojourn, per class). An absent block means the server dropped the
// arrivals field; non-monotone percentiles mean the percentile math or
// the recorder is broken.
func checkLatency(v service.JobView) error {
	var sum struct {
		Latency *stats.LatencyStats `json:"latency"`
	}
	if err := json.Unmarshal(v.Summary, &sum); err != nil {
		return fmt.Errorf("%s: summary JSON: %w", v.ID, err)
	}
	l := sum.Latency
	if l == nil {
		return fmt.Errorf("%s: -arrivals job completed without latency stats in its summary", v.ID)
	}
	if l.Injected != l.Retired {
		return fmt.Errorf("%s: arrival conservation violated: injected %d != retired %d", v.ID, l.Injected, l.Retired)
	}
	for _, c := range l.Classes {
		if c.WaitP50 > c.WaitP95 || c.WaitP95 > c.WaitP99 {
			return fmt.Errorf("%s: class %s wait percentiles not monotone: p50 %d, p95 %d, p99 %d",
				v.ID, c.Class, c.WaitP50, c.WaitP95, c.WaitP99)
		}
		if c.SojournP50 > c.SojournP95 || c.SojournP95 > c.SojournP99 {
			return fmt.Errorf("%s: class %s sojourn percentiles not monotone: p50 %d, p95 %d, p99 %d",
				v.ID, c.Class, c.SojournP50, c.SojournP95, c.SojournP99)
		}
	}
	return nil
}

// fail records one lost submission (nil: none).
func (l *loader) fail(err error) {
	if err != nil {
		l.mu.Lock()
		l.failures = append(l.failures, err.Error())
		l.mu.Unlock()
	}
}

// percentiles returns the exact nearest-rank p-th percentiles of ds
// (stats.Percentile over nanoseconds, the definition RunSummary latency
// and perfbench use), rounded to the millisecond for printing.
func percentiles(ds []time.Duration, ps ...float64) []time.Duration {
	ns := make([]int64, len(ds))
	for i, d := range ds {
		ns[i] = int64(d)
	}
	slices.Sort(ns)
	out := make([]time.Duration, len(ps))
	for i, p := range ps {
		out[i] = time.Duration(stats.Percentile(ns, p)).Round(time.Millisecond)
	}
	return out
}

// report prints the run summary and returns whether the run passes:
// no hash mismatches, no failures, and (with requireHits) at least one
// deduplicated submission.
func (l *loader) report(requireHits bool) bool {
	l.mu.Lock()
	defer l.mu.Unlock()

	done := l.statusSojourns[service.StatusDone]
	var total time.Duration
	for _, d := range done {
		total += d
	}
	ratio := 0.0
	if len(done) > 0 {
		ratio = float64(l.cachedN) / float64(len(done))
	}

	fmt.Printf("minnowload: submitted %d, completed %d, canceled %d, failed %d (backpressure retries %d)\n",
		l.submitted, len(done), len(l.statusSojourns[service.StatusCanceled]), len(l.failures), l.retries)
	if len(done) > 0 {
		q := percentiles(done, 50, 99)
		fmt.Printf("minnowload: sojourn p50 %v  p99 %v  mean %v\n", q[0], q[1], (total / time.Duration(len(done))).Round(time.Millisecond))
	}
	// Per-terminal-status percentiles: canceled submissions resolve much
	// faster than completed simulations, so one merged distribution hides
	// both shapes.
	statuses := make([]string, 0, len(l.statusSojourns))
	for st := range l.statusSojourns {
		statuses = append(statuses, st)
	}
	sort.Strings(statuses)
	for _, st := range statuses {
		ds := l.statusSojourns[st]
		q := percentiles(ds, 50, 95, 99)
		fmt.Printf("minnowload: sojourn[%s] n=%d  p50 %v  p95 %v  p99 %v\n", st, len(ds), q[0], q[1], q[2])
	}
	fmt.Printf("minnowload: client-observed cache hit ratio %.3f (%d of %d served without a fresh simulation)\n", ratio, l.cachedN, len(done))
	fmt.Printf("minnowload: %d distinct cache keys, %d hash mismatches\n", len(l.hashes), len(l.mismatch))

	ok := true
	for _, m := range l.mismatch {
		fmt.Fprintln(os.Stderr, "minnowload: MISMATCH:", m)
		ok = false
	}
	for i, f := range l.failures {
		if i == 8 {
			fmt.Fprintf(os.Stderr, "minnowload: ... and %d more failures\n", len(l.failures)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "minnowload: FAILED:", f)
	}
	if len(l.failures) > 0 {
		ok = false
	}
	if requireHits && l.cachedN == 0 {
		fmt.Fprintln(os.Stderr, "minnowload: -require-hits: no submission was deduplicated")
		ok = false
	}
	return ok
}
