package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"

	"minnow/internal/stats"
)

// decl is a reported metric's name and unit. A per-layer metric also
// names the end-to-end metrics it should move and the workloads it
// moves them on; -out writes that map beside the measurements.
type decl struct{ name, unit, moves, on string }

// endToEnd lists the metrics a user of the system sees, reported by
// every workload of an untraced run.
var endToEnd = []decl{{name: "setup_s", unit: "s"}, {name: "run_s", unit: "s"}, {name: "sim_mips", unit: "Muops/s"}, {name: "peak_rss_mb", unit: "MB"}}

// Workload sets a per-layer metric acts on.
const (
	onSim = "sim-sw sim-minnow sim-64c"
	onAll = onSim + " svc-mixed"
)

// runtimeMetrics are the Go runtime's allocation and collector activity
// over one pass, in the order runtimeDelta returns them.
var runtimeMetrics = [4]decl{
	{"runtime.alloc_mb", "MB", "peak_rss_mb run_s", onAll},
	{"runtime.mallocs_k", "k", "peak_rss_mb run_s", onAll},
	{"runtime.gc_cycles", "count", "peak_rss_mb run_s", onAll},
	{"runtime.gc_pause_ms", "ms", "run_s", onAll},
}

func runtimeDelta(before, after *runtime.MemStats) [4]float64 {
	return [4]float64{
		float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		float64(after.Mallocs-before.Mallocs) / 1e3,
		float64(after.NumGC - before.NumGC),
		float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
	}
}

// perLayer lists every per-layer metric a traced run reports. A workload
// that does not exercise a layer reports 0 for it, so every time listed
// here is one all workloads measure: a time that read 0 on every run of
// a workload would look unmeasured. Workload-specific times
// (kernel.*.run_s, the service's latencies) and the raw wall.* times are
// detail metrics instead: printed and written by -out, but not in the
// JSON result line. The service's own end-to-end metrics are detail
// metrics too; -compare gates them (compare.go).
var perLayer = slices.Concat([]decl{
	// Share of the measured phase's sampled CPU time per layer, and the
	// sampled CPU seconds per pass it is a share of (hostprof.go).
	{"host.sim.pct", "%", "run_s sim_mips", "sim-minnow sim-64c svc-mixed; about 0 on sim-sw"},
	{"host.cpu.pct", "%", "run_s sim_mips", onAll + "; sim-sw most"},
	{"host.bpred.pct", "%", "run_s sim_mips", onAll + "; sim-sw most"},
	{"host.tlb.pct", "%", "run_s sim_mips", onAll + "; sim-sw most"},
	{"host.uops.pct", "%", "run_s sim_mips", onAll + "; sim-sw most"},
	{"host.mem.pct", "%", "run_s sim_mips", onAll},
	{"host.noc.pct", "%", "run_s sim_mips", onAll},
	{"host.dram.pct", "%", "run_s sim_mips", onAll},
	{"host.core.pct", "%", "run_s sim_mips", "sim-minnow sim-64c svc-mixed; no change on sim-sw"},
	{"host.worklist.pct", "%", "run_s sim_mips", "sim-sw only"},
	{"host.galois.pct", "%", "run_s sim_mips", onAll},
	{"host.kernels.pct", "%", "run_s sim_mips", onAll},
	{"host.harness.pct", "%", "run_s sim_mips", onAll},
	{"host.graph.pct", "%", "setup_s run_s", onAll},
	{"host.stats.pct", "%", "run_s", onAll},
	{"host.obs.pct", "%", "run_s", onAll},
	{"host.service.pct", "%", "run_s sim_mips setup_s svc_hit_p50_ms", "svc-mixed; 0 elsewhere"},
	{"host.service.cache.pct", "%", "setup_s svc_hit_p50_ms", "svc-mixed; 0 elsewhere"},
	{"host.service.journal.pct", "%", "setup_s run_s", "svc-mixed; 0 elsewhere"},
	{"host.service.tracing.pct", "%", "run_s svc_hit_p50_ms", "svc-mixed; 0 elsewhere"},
	{"host.bench.pct", "%", "none: the load generator's own cost", "svc-mixed"},
	{"host.gc.pct", "%", "run_s peak_rss_mb", onAll},
	{"host.other.pct", "%", "run_s", onAll},
	{"host.named_pct", "%", "none: the share the split accounts for", onAll},
	{"host.total_s", "s", "run_s", onAll},
	// Event loop: per pass, or over the service's open-loop cold jobs.
	{"sim.steps", "count", "run_s sim_mips", onAll},
	{"sim.steps_per_s", "1/s", "run_s sim_mips", onAll},
	{"sim.bound_pct", "%", "run_s sim_mips", "sim-64c"},
}, runtimeMetrics[:], modelMetrics, []decl{
	// Service counts and ratios, from the load generator and /metrics.
	{"svc.hit_ratio", "ratio", "svc_hit_p50_ms svc_goodput_pct", "svc-mixed"},
	{"svc.coalesced", "count", "run_s sim_mips", "svc-mixed"},
	{"svc.refused", "count", "ops_failed_pct svc_goodput_pct", "svc-mixed"},
	{"svc.conflicts", "count", "ops_failed_pct", "svc-mixed"},
	{"svc.journal_errors", "count", "ops_failed_pct", "svc-mixed"},
	{"svc.recovered_jobs", "count", "setup_s", "svc-mixed"},
	{"load.hits_n", "count", "none: the hit sample count", "svc-mixed"},
	{"load.misses_n", "count", "none: the miss sample count", "svc-mixed"},
})

// modelMetrics are the simulated model counts, deterministic for a seed:
// per pass, or summed over the service's open-loop cold jobs. They move
// the host-time metrics only through the number of events simulated.
var modelMetrics = []decl{
	{"model.cycles", "cycles", "run_s sim_mips", onAll},
	{"model.instrs", "uops", "run_s sim_mips", onAll},
	{"model.work_items", "count", "run_s sim_mips", onAll},
	{"model.l2_mpki", "1/kuop", "run_s sim_mips", onAll},
	{"model.l3_misses", "count", "run_s sim_mips", onAll},
	{"model.avg_load_lat_cyc", "cycles", "run_s sim_mips", onAll},
	{"model.dram_reads", "count", "run_s sim_mips", onAll},
	{"model.dram_stall_cyc", "cycles", "run_s sim_mips", onAll},
	{"model.noc_stall_cyc", "cycles", "run_s sim_mips", onAll},
	{"model.inv_msgs", "count", "run_s sim_mips", onAll},
	{"model.prefetch_eff", "ratio", "run_s sim_mips", "sim-minnow sim-64c svc-mixed"},
	{"model.engine_prefetches", "count", "run_s sim_mips", "sim-minnow sim-64c svc-mixed"},
	{"model.enq_cyc", "cycles", "run_s sim_mips", onAll},
	{"model.deq_cyc", "cycles", "run_s sim_mips", onAll},
}

func declares(list []decl, name string) bool {
	return slices.ContainsFunc(list, func(d decl) bool { return d.name == name })
}

// metric is one measured value. Samples keeps the raw value of every
// pass or build a median was taken over, so -compare can judge spread.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	N       int       `json:"n,omitempty"` // samples behind a percentile
	Samples []float64 `json:"samples,omitempty"`
}

// result is one workload run's outcome.
type result struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Notes     []string          `json:"notes,omitempty"`
	Hashes    map[string]string `json:"hashes"`
	Metrics   map[string]metric `json:"metrics"`

	profile []byte // the traced run's gzipped CPU profile
}

func newResult(name string) *result {
	return &result{Workload: name, Correct: true, Hashes: map[string]string{}, Metrics: map[string]metric{}}
}

// maxErrors caps how many failure messages a result keeps.
const maxErrors = 20

// fail counts one failed operation and keeps its message.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	r.Correct = false
	if len(r.Errors) < maxErrors {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

func (r *result) set(name, unit string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// setMedian records the median of repeated measurements with the raw
// values beside it.
func (r *result) setMedian(name, unit string, samples []float64) {
	r.Metrics[name] = metric{Value: median(samples), Unit: unit, Samples: samples}
}

// setPercentile records the p-th percentile of a latency sample in ms,
// or 0 with a note when fewer than ten samples lie beyond it.
func (r *result) setPercentile(name string, lat []time.Duration, p float64) {
	v, ok := percentileMS(lat, p)
	if !ok {
		r.Notes = append(r.Notes, fmt.Sprintf("%s dropped: %d samples leave fewer than 10 beyond p%g", name, len(lat), p))
	}
	r.Metrics[name] = metric{Value: v, Unit: "ms", N: len(lat)}
}

// complete adds the peak resident set size since the workload started,
// the share of failed operations, and every metric of the run's mode the
// workload did not report, as 0, so each run reports the same names.
func (r *result) complete(traced bool) {
	if rss, err := peakRSSMB(); err != nil {
		r.fail("peak RSS: %v", err)
	} else {
		r.set("peak_rss_mb", "MB", rss)
	}
	r.set("ops_failed_pct", "%", 100*float64(r.Failed)/float64(max(r.Attempted, 1)))
	if !traced {
		return
	}
	for _, m := range perLayer {
		if _, ok := r.Metrics[m.name]; !ok {
			r.set(m.name, m.unit, 0)
		}
	}
}

// percentileMS is stats.Percentile (exact nearest rank) over durations,
// in milliseconds. ok is false when fewer than ten samples lie beyond
// the percentile, too few to support it.
func percentileMS(lat []time.Duration, p float64) (ms float64, ok bool) {
	if float64(len(lat))*(100-p)/100 < 10 {
		return 0, false
	}
	ns := make([]int64, len(lat))
	for i, d := range lat {
		ns[i] = int64(d)
	}
	slices.Sort(ns)
	return float64(stats.Percentile(ns, p)) / 1e6, true
}

// median is the middle value of repeated measurements (the mean of the
// middle two for an even count), 0 when there are none.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartiles of v by the exclusive
// method of Python's statistics.quantiles(v, n=4), the definition the
// benchmark's spread limits are stated in. Fewer than two values have no
// spread: both quartiles are the single value.
func quartiles(v []float64) (q1, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		m := median(s)
		return m, m
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile distance of v as a share of its median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / m
}

// resetPeakRSS starts a workload's peak resident set size afresh: it
// collects the previous workload's garbage, returns the freed memory to
// the OS, and resets the kernel's high-water mark (VmHWM) to the current
// resident set by writing 5 to /proc/self/clear_refs (Linux 4.0 and
// later). Without it, every workload after the first in one process
// would report the largest earlier peak.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the resident-set high-water mark (VmHWM) since the
// last resetPeakRSS.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
