package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"minnow/internal/service"
)

// The svc-mixed workload: an in-process minnowd on loopback, with a disk
// cache and a journal, serving cache hits beside cold simulations.
const (
	svcShards   = 2
	svcWarmKeys = 16
	// svcCanceled is how many fresh keys the warm-up submits and cancels
	// at once: journaled jobs that never simulate, so that each restart
	// replays about a thousand jobs, as a long-lived server would, and
	// setup_s measures that work rather than a few file syncs.
	svcCanceled = 1000
	// svcRestarts is how many restarts setup_s is the median of.
	svcRestarts = 15
	// svcCalibrations is how many calibration loops run just before and
	// just after the closed loop.
	svcCalibrations = 5
	// svcRate is the open loop's mean Poisson submission rate per second;
	// every svcMissEvery-th submission is a fresh key (10% misses), the
	// rest repeat warmed keys. At about 0.35 s per cold job that keeps the
	// two shards a third busy, so queues stay short.
	svcRate      = 25.0
	svcMissEvery = 10
	// svcClients is both the closed loop's client count and the client's
	// connection cap: load never uses more than two host connections.
	svcClients = 2
	// svcOpenShare of the measured time runs the open loop; the rest runs
	// the closed loop.
	svcOpenShare = 0.6
	// Goodput limits: a submission counts as good when done within these
	// of its due time.
	hitLimit  = 50 * time.Millisecond
	missLimit = 3 * time.Second
	// waitLimit bounds any one request; a job not terminal by then is lost.
	waitLimit = 2 * time.Minute
)

// svcBenches are the fresh and warmed keys' kernels, in rotation.
var svcBenches = []string{"SSSP", "BFS", "CC"}

// point is one job submission and the cache key the client expects the
// server to file it under.
type point struct {
	label string
	key   string
	body  []byte
}

func newPoint(bench string, seed uint64) point {
	spec := service.JobSpec{Bench: bench, Config: service.ConfigSpec{Threads: 2, Seed: seed, Minnow: true, Prefetch: true}}
	key, _ := service.CacheKey(bench, spec.Config.ToConfig())
	body, err := json.Marshal(spec)
	if err != nil {
		panic(err) // a JobSpec of plain fields always marshals
	}
	return point{fmt.Sprintf("%s/seed=%d", bench, seed), key, body}
}

// svcServer is the in-process minnowd and its loopback listener.
type svcServer struct {
	cfg  service.Config
	srv  *service.Server
	stop func() error
	base string
}

func (s *svcServer) start() error {
	srv, err := service.New(s.cfg)
	if err != nil {
		return err
	}
	addr, stop, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background()) //nolint:errcheck // already failing
		return err
	}
	s.srv, s.stop, s.base = srv, stop, "http://"+addr
	return nil
}

// shutdown closes the listener and drains the server.
func (s *svcServer) shutdown() error {
	s.stop() //nolint:errcheck // closing a listener we own; Shutdown reports what matters
	ctx, cancel := context.WithTimeout(context.Background(), waitLimit)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

// client is the load generator's HTTP side.
type client struct {
	base string
	tr   *http.Transport
	hc   *http.Client
	seq  atomic.Int64
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: svcClients, MaxIdleConnsPerHost: svcClients}
	return &client{base: base, tr: tr, hc: &http.Client{Transport: tr, Timeout: waitLimit}}
}

// corr returns a fresh correlation ID for one submission.
func (c *client) corr() string { return fmt.Sprintf("bench-%d", c.seq.Add(1)) }

// submit POSTs one job. code is the HTTP status (0 when none arrived).
func (c *client) submit(p point, corr string) (v service.JobView, code int, err error) {
	req, err := http.NewRequest(http.MethodPost, c.base+"/jobs", bytes.NewReader(p.body))
	if err != nil {
		return v, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Correlation-ID", corr)
	resp, err := c.hc.Do(req)
	if err != nil {
		return v, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return v, resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return v, resp.StatusCode, fmt.Errorf("POST /jobs %s: %d: %s", p.label, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return v, resp.StatusCode, fmt.Errorf("POST /jobs %s: %w", p.label, err)
	}
	if v.Corr != corr {
		return v, resp.StatusCode, fmt.Errorf("POST /jobs %s: correlation ID %q came back as %q", p.label, corr, v.Corr)
	}
	return v, resp.StatusCode, nil
}

// cancel DELETEs one job and returns its view after the cancel.
func (c *client) cancel(id string) (v service.JobView, err error) {
	req, err := http.NewRequest(http.MethodDelete, c.base+"/jobs/"+id, nil)
	if err != nil {
		return v, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return v, err
	}
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("DELETE /jobs/%s: %d: %s", id, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return v, json.Unmarshal(body, &v)
}

// wait follows a job's event stream until the job is terminal and
// returns its final view.
func (c *client) wait(id string) (service.JobView, error) {
	var v service.JobView
	resp, err := c.hc.Get(c.base + "/jobs/" + id + "/stream")
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("GET /jobs/%s/stream: %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if e, ok := strings.CutPrefix(line, "event: "); ok {
			event = e
		} else if d, ok := strings.CutPrefix(line, "data: "); ok && event == "done" {
			err := json.Unmarshal([]byte(d), &v)
			return v, err
		}
	}
	if err := sc.Err(); err != nil {
		return v, err
	}
	return v, fmt.Errorf("GET /jobs/%s/stream: ended without a done event", id)
}

// ready polls /healthz until the server answers.
func (c *client) ready() error {
	deadline := time.Now().Add(waitLimit)
	for {
		resp, err := c.hc.Get(c.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for connection reuse
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not ready after %v: %v", waitLimit, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// metrics scrapes /metrics, summing each metric over its label sets.
func (c *client) metrics() (map[string]float64, error) {
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") {
			continue
		}
		name, _, _ := strings.Cut(f[0], "{")
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", sc.Text(), err)
		}
		m[name] += v
	}
	return m, sc.Err()
}

// arrivals draws the open loop's seeded Poisson due times over d.
func arrivals(seed uint64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewPCG(seed, 1))
	var due []time.Duration
	for t := rng.ExpFloat64() / svcRate; t < d.Seconds(); t += rng.ExpFloat64() / svcRate {
		due = append(due, time.Duration(t*float64(time.Second)))
	}
	return due
}

func runSvc(o options) (*result, error) {
	res := newResult("svc-mixed")
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workDir, "svc-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	s := &svcServer{cfg: service.Config{
		Shards:      svcShards,
		CacheDir:    filepath.Join(dir, "cache"),
		JournalPath: filepath.Join(dir, "journal.jsonl"),
	}}
	if err := s.start(); err != nil {
		return nil, err
	}
	c := newClient(s.base)
	defer c.tr.CloseIdleConnections()
	running := true
	defer func() {
		if running {
			s.shutdown() //nolint:errcheck // already returning an error
		}
	}()

	// Warmed keys count up from seed<<20, canceled ones from
	// seed<<20 + 1<<18 and fresh ones from seed<<20 + 1<<19, so no two
	// keys of a run collide.
	base := o.seed << 20
	warm, canceled := make([]point, svcWarmKeys), make([]point, svcCanceled)
	if o.tiny {
		warm, canceled = warm[:2], canceled[:10]
	}
	for i := range warm {
		warm[i] = newPoint(svcBenches[i%len(svcBenches)], base+uint64(i))
	}
	for i := range canceled {
		canceled[i] = newPoint(svcBenches[i%len(svcBenches)], base+1<<18+uint64(i))
	}
	var freshN atomic.Uint64
	l := &load{c: c, res: res, spans: o.spans, warm: warm, fresh: func() point {
		j := freshN.Add(1) - 1
		return newPoint(svcBenches[j%uint64(len(svcBenches))], base+1<<19+j)
	}}

	l.warmUp(canceled)

	stopProfile, err := startProfile(o.profile)
	if err != nil {
		return nil, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	openFor := time.Duration(float64(o.seconds) * svcOpenShare)
	l.openLoop(o.seed, openFor)
	// The first server instance's counters cover the warm-up and the open
	// loop; the restarts start new instances.
	open, err := c.metrics()
	if err != nil {
		return nil, err
	}

	// Restart on the run's cache and journal: the warmed keys, the
	// canceled keys and the open loop's cold jobs, a number the seed
	// fixes, replay each time. Each restart follows a calibration loop
	// (calib.go), and so does the closed loop, which also ends with them.
	var clk clock
	var restarts []float64
	for i := 0; i < svcRestarts; i++ {
		clk.sample(1)
		t0 := time.Now()
		if err := s.shutdown(); err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		if err := s.start(); err != nil {
			running = false
			return nil, fmt.Errorf("restart: %w", err)
		}
		c.tr.CloseIdleConnections()
		c.base = s.base
		if err := c.ready(); err != nil {
			return nil, err
		}
		o.spans.add("restart", "setup", 0, "", t0, time.Now())
		restarts = append(restarts, time.Since(t0).Seconds())
	}
	rec := s.srv.Recovery()
	res.set("svc.recovered_jobs", "count", float64(rec.Requeued+rec.Completed+rec.Terminal))
	if rec.Requeued != 0 {
		res.fail("restart re-enqueued %d jobs; every journaled job had finished", rec.Requeued)
	}

	clk.sample(svcCalibrations)
	l.closedLoop(o.seconds - openFor)
	runtime.ReadMemStats(&after)
	res.profile = stopProfile()
	if err := res.setHostTime(1); err != nil {
		return nil, err
	}
	clk.sample(svcCalibrations)

	closed, err := c.metrics()
	if err != nil {
		return nil, err
	}
	running = false
	if err := s.shutdown(); err != nil {
		return nil, err
	}
	counter := func(name string) float64 { return open[name] + closed[name] }
	if n := counter("minnowd_cache_conflicts_total"); n != 0 {
		res.fail("%v cache hash conflicts", n)
	}
	if n := counter("minnowd_journal_errors_total"); n != 0 {
		res.fail("%v journal errors", n)
	}
	res.set("svc.hit_ratio", "ratio", open["minnowd_cache_hit_ratio"])
	res.set("svc.coalesced", "count", counter("minnowd_cache_coalesced_total"))
	res.set("svc.conflicts", "count", counter("minnowd_cache_conflicts_total"))
	res.set("svc.journal_errors", "count", counter("minnowd_journal_errors_total"))
	if n := counter("minnowd_cache_write_seconds_count"); n > 0 {
		res.set("svc.cache_write_ms_mean", "ms", 1e3*counter("minnowd_cache_write_seconds_sum")/n)
	}
	// The end-to-end host times in the host's reference state; the raw
	// ones beside them.
	f := clk.factor()
	clk.record(res)
	res.setMedian("setup_s", "s", scaled(restarts, f))
	res.setMedian("wall.setup_s", "s", restarts)
	l.report(f)
	for i, v := range runtimeDelta(&before, &after) {
		res.set(runtimeMetrics[i].name, runtimeMetrics[i].unit, v)
	}
	return res, nil
}

// load is the service workload's load generator and what it measured.
type load struct {
	c     *client
	res   *result
	spans *spanLog
	warm  []point
	fresh func() point

	hitLat, missLat, rtt, lags []time.Duration
	queueWait, exec            []time.Duration // stamps of cold jobs
	due, good, refused         int
	// missed sums the open loop's cold jobs, which a seed fixes, and
	// missedExec their execution time.
	missed     totals
	missedExec time.Duration
	// The closed loop's cold jobs: each one's latency from submission to
	// its done event, and their simulated work.
	coldLat  []time.Duration
	coldUops int64
	coldFor  time.Duration // closed loop start to its last completion
}

// refusal reports whether an HTTP status is backpressure (429 or 503).
func refusal(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// cold records a cold job's lifecycle stamps.
func (l *load) cold(v service.JobView) {
	l.queueWait = append(l.queueWait, time.Duration(v.StartedAtNS-v.QueuedAtNS))
	l.exec = append(l.exec, time.Duration(v.DoneAtNS-v.StartedAtNS))
}

// warmUp simulates every warmed key once, untimed, and records each
// key's summary hash for the hits to match. While the warmed keys queue
// for the shards, it submits each canceled key and cancels it at once,
// so it ends canceled without simulating.
func (l *load) warmUp(canceled []point) {
	ids := make([]string, len(l.warm))
	for i, p := range l.warm {
		l.res.Attempted++
		v, _, err := l.c.submit(p, l.c.corr())
		if err != nil {
			l.res.fail("warm %v", err)
			continue
		}
		ids[i] = v.ID
	}
	for _, p := range canceled {
		l.res.Attempted++
		v, _, err := l.c.submit(p, l.c.corr())
		if err == nil {
			v, err = l.c.cancel(v.ID)
		}
		if err == nil && v.Status == service.StatusRunning {
			// It reached a shard first; it stops within one cancel poll.
			v, err = l.c.wait(v.ID)
		}
		switch {
		case err != nil:
			l.res.fail("cancel %s: %v", p.label, err)
		case v.Status != service.StatusCanceled:
			l.res.fail("cancel %s: %s", p.label, v.Status)
		}
	}
	for i, p := range l.warm {
		if ids[i] == "" {
			continue
		}
		v, err := l.c.wait(ids[i])
		switch {
		case err != nil:
			l.res.fail("warm %s: %v", p.label, err)
		case v.Status != service.StatusDone:
			l.res.fail("warm %s: %s: %s", p.label, v.Status, v.Error)
		case v.Key != p.key:
			l.res.fail("warm %s: server key %s, client key %s", p.label, v.Key, p.key)
		default:
			l.res.Hashes[p.label] = v.SummaryHash
		}
	}
}

// openLoop submits on a seeded Poisson schedule for d, through
// svcClients senders, and times each submission from when it was due:
// a hit until its response, a miss until the server's done stamp.
func (l *load) openLoop(seed uint64, d time.Duration) {
	due := arrivals(seed, d)
	l.due = len(due)
	pick := rand.New(rand.NewPCG(seed, 2))
	points := make([]point, len(due))
	for i := range points {
		if i%svcMissEvery == svcMissEvery-1 {
			points[i] = l.fresh()
		} else {
			points[i] = l.warm[pick.IntN(len(l.warm))]
		}
	}
	type outcome struct {
		v          service.JobView
		code       int
		err        error
		corr       string
		sent, recv time.Time
	}
	outs := make([]outcome, len(due))
	send := make(chan int, len(due)) // sized to the sends: the schedule never blocks on a busy sender
	var wg sync.WaitGroup
	for w := 0; w < svcClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range send {
				corr := l.c.corr()
				sent := time.Now()
				v, code, err := l.c.submit(points[i], corr)
				outs[i] = outcome{v, code, err, corr, sent, time.Now()}
			}
		}()
	}
	start := time.Now()
	for i, d := range due {
		time.Sleep(time.Until(start.Add(d)))
		l.lags = append(l.lags, time.Since(start)-d)
		send <- i
	}
	close(send)
	wg.Wait()

	for i, out := range outs {
		l.res.Attempted++
		p, dueAt := points[i], start.Add(due[i])
		if refusal(out.code) {
			l.refused++
		}
		if out.err != nil {
			l.res.fail("open loop: %v", out.err)
			continue
		}
		l.rtt = append(l.rtt, out.recv.Sub(out.sent))
		if out.v.Key != p.key {
			l.res.fail("open loop %s: server key %s, client key %s", p.label, out.v.Key, p.key)
			continue
		}
		if i%svcMissEvery == svcMissEvery-1 {
			v, err := l.c.wait(out.v.ID)
			switch {
			case err != nil:
				l.res.fail("open loop %s: %v", p.label, err)
				continue
			case v.Status != service.StatusDone || v.Cached:
				l.res.fail("open loop %s: want a done cold run, got %s cached=%v %s", p.label, v.Status, v.Cached, v.Error)
				continue
			}
			if err := l.missed.add(v.Summary); err != nil {
				l.res.fail("open loop %s: %v", p.label, err)
				continue
			}
			lat := time.Duration(v.DoneAtNS - dueAt.UnixNano())
			l.missLat = append(l.missLat, lat)
			l.missedExec += time.Duration(v.DoneAtNS - v.StartedAtNS)
			l.cold(v)
			if lat <= missLimit {
				l.good++
			}
			l.spans.add("miss "+p.label, "submission", 2, out.corr, dueAt, time.Unix(0, v.DoneAtNS))
			continue
		}
		switch {
		case out.v.Status != service.StatusDone || !out.v.Cached:
			l.res.fail("open loop %s: warmed key not served from cache (status %s)", p.label, out.v.Status)
		case out.v.SummaryHash != l.res.Hashes[p.label]:
			l.res.fail("open loop %s: hash %s, warmed as %s", p.label, out.v.SummaryHash, l.res.Hashes[p.label])
		default:
			lat := out.recv.Sub(dueAt)
			l.hitLat = append(l.hitLat, lat)
			if lat <= hitLimit {
				l.good++
			}
			l.spans.add("hit "+p.label, "submission", 1, out.corr, dueAt, out.recv)
		}
	}
}

// closedLoop runs svcClients clients for d, each submitting a fresh key
// and waiting for its job to finish before the next.
func (l *load) closedLoop(d time.Duration) {
	var (
		mu   sync.Mutex
		errs []string
		wg   sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(d)
	for w := 0; w < svcClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				p, corr := l.fresh(), l.c.corr()
				t0 := time.Now()
				v, code, err := l.c.submit(p, corr)
				if err == nil {
					v, err = l.c.wait(v.ID)
				}
				var t totals
				if err == nil && v.Status == service.StatusDone && v.Key == p.key {
					err = t.add(v.Summary)
				}
				end := time.Now()
				l.spans.add("cold "+p.label, "submission", 3+w, corr, t0, end)
				mu.Lock()
				l.res.Attempted++
				if refusal(code) {
					l.refused++
				}
				switch {
				case err != nil:
					errs = append(errs, err.Error())
				case v.Status != service.StatusDone || v.Key != p.key:
					errs = append(errs, fmt.Sprintf("%s: status %s, server key %s, client key %s %s", p.label, v.Status, v.Key, p.key, v.Error))
				default:
					l.coldLat = append(l.coldLat, end.Sub(t0))
					l.coldUops += t.instrs
					l.coldFor = end.Sub(start)
					l.cold(v)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, e := range errs {
		l.res.fail("closed loop %s", e)
	}
}

// report records the load generator's metrics. The two end-to-end host
// times come from the closed loop: run_s is the median latency of a cold
// job, sim_mips the simulated work the cold jobs retired per second.
// Both are scaled by f to the host's reference state (calib.go), with
// the wall times beside them; the service's own metrics are wall times.
// The model counts and event-loop steps are those of the open loop's
// cold jobs, which the seed fixes.
func (l *load) report(f float64) {
	r := l.res
	if len(l.coldLat) == 0 {
		r.fail("closed loop: no cold job finished")
	} else {
		mips := float64(l.coldUops) / l.coldFor.Seconds() / 1e6
		r.set("wall.sim_mips", "Muops/s", mips)
		r.set("sim_mips", "Muops/s", mips/f)
		r.set("svc_cold_jobs_per_s", "jobs/s", float64(len(l.coldLat))/l.coldFor.Seconds())
	}
	r.setPercentile("run_s", l.coldLat, 50) // in ms: converted next
	run := r.Metrics["run_s"]
	run.Value, run.Unit = run.Value/1e3, "s"
	r.Metrics["wall.run_s"] = run
	run.Value *= f
	r.Metrics["run_s"] = run
	l.missed.report(r)
	if l.missedExec > 0 {
		r.set("sim.steps_per_s", "1/s", float64(l.missed.steps)/l.missedExec.Seconds())
	}
	r.setPercentile("svc_miss_p50_ms", l.missLat, 50)
	r.setPercentile("svc_hit_p50_ms", l.hitLat, 50)
	r.setPercentile("svc_hit_p95_ms", l.hitLat, 95)
	r.setPercentile("svc.submit_rtt_p50_ms", l.rtt, 50)
	r.setPercentile("svc.submit_rtt_p95_ms", l.rtt, 95)
	r.setPercentile("svc.queue_wait_p50_ms", l.queueWait, 50)
	r.setPercentile("svc.exec_p50_ms", l.exec, 50)
	r.setPercentile("load.gen_lag_p95_ms", l.lags, 95)
	r.set("svc_goodput_pct", "%", 100*float64(l.good)/float64(max(l.due, 1)))
	r.set("svc.refused", "count", float64(l.refused))
	r.set("load.hits_n", "count", float64(len(l.hitLat)))
	r.set("load.misses_n", "count", float64(len(l.missLat)))
}
