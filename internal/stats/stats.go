// Package stats collects and formats simulation statistics: per-core cycle
// breakdowns, cache miss counters, prefetch effectiveness, and the derived
// metrics the paper reports (MPKI §6.3, prefetch efficiency Fig. 20,
// delinquent load density Fig. 6, the Fig. 5 cycle breakdown, speedups).
//
// Determinism contract: everything in Run except the observability
// attachments (Trace, Intervals, Timeline, Profile) is part of
// RunSummary, the canonical fingerprint two runs of one configuration
// must reproduce byte-for-byte; see summary.go for what is excluded and
// why.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"minnow/internal/obs"
	"minnow/internal/prof"
)

// CycleCat classifies where a core cycle was spent, for the Fig. 5
// breakdown.
type CycleCat int

const (
	// CatUseful is time spent executing the benchmark operator that is
	// not attributable to a memory stall or worklist work.
	CatUseful CycleCat = iota
	// CatWorklist is time spent inside worklist enqueue/dequeue
	// operations (including spin-waiting for work).
	CatWorklist
	// CatLoadMiss is stall time attributable to data-cache load misses.
	CatLoadMiss
	// CatStoreMiss is stall time attributable to stores and atomics
	// (atomics are classified as stores, as in the paper).
	CatStoreMiss
	numCats
)

// String returns the short label used in tables.
func (c CycleCat) String() string {
	switch c {
	case CatUseful:
		return "useful"
	case CatWorklist:
		return "worklist"
	case CatLoadMiss:
		return "load-miss"
	case CatStoreMiss:
		return "store-miss"
	}
	return fmt.Sprintf("cat(%d)", int(c))
}

// CoreStats aggregates one core's activity.
type CoreStats struct {
	Cycles     [numCats]int64 // cycle breakdown
	Instrs     int64          // retired micro-ops (for MPKI)
	Loads      int64          // all load micro-ops
	Delinquent int64          // loads tagged as first-touch node/edge/task accesses
	Branches   int64          // conditional branch micro-ops
	Mispreds   int64          // TAGE mispredictions
	Atomics    int64          // atomic RMW micro-ops (fence points)
	TasksRun   int64          // operator applications on this core
	EnqOps     int64          // worklist enqueue operations
	DeqOps     int64          // successful worklist dequeue operations
	EnqCycles  int64          // cycles spent inside enqueue operations
	DeqCycles  int64          // cycles spent inside dequeue operations
}

// TotalCycles returns the sum over all categories.
func (c *CoreStats) TotalCycles() int64 {
	var t int64
	for _, v := range c.Cycles {
		t += v
	}
	return t
}

// CacheStats aggregates one cache level's activity.
type CacheStats struct {
	Accesses      int64 // demand lookups
	Misses        int64 // demand lookups that missed
	Evictions     int64 // lines displaced by fills
	Writebacks    int64 // dirty lines written back on eviction
	PrefetchFills int64 // lines installed by a prefetcher
	PrefetchUsed  int64 // prefetched lines touched by demand before eviction
	PrefetchWaste int64 // prefetched lines evicted untouched
}

// Efficiency returns used-before-eviction / fills, the paper's prefetch
// efficiency metric (Fig. 20). Returns 1 when nothing was prefetched.
func (c *CacheStats) Efficiency() float64 {
	if c.PrefetchFills == 0 {
		return 1
	}
	return float64(c.PrefetchUsed) / float64(c.PrefetchFills)
}

// EngineStats aggregates one Minnow engine's activity.
type EngineStats struct {
	LocalEnq     int64 // tasks enqueued into the local queue
	LocalDeq     int64 // tasks dequeued from the local queue
	Spills       int64 // tasks spilled to the global worklist
	Fills        int64 // tasks filled from the global worklist
	Threadlets   int64 // threadlets executed
	Prefetches   int64 // prefetch loads issued
	CreditStalls int64 // times a prefetch threadlet stalled on credits
	TLBMissExcps int64 // TLB-miss exceptions raised to the host core
	LateDrops    int64 // prefetch streams cancelled (task already dequeued)
	StepsRun     int64 // actor steps executed
	Parks        int64 // times the back-end went idle
	ClockEnd     int64 // back-end local time at run end
	StreamsDone  int64 // prefetch streams that ran to completion

	// The fault-injection counters below are zero (and omitted from the
	// canonical JSON) in fault-free runs, keeping summaries byte-identical
	// to builds without the fault layer.

	// FaultStalls counts injected engine-stall faults this engine took.
	FaultStalls int64 `json:"FaultStalls,omitempty"`
	// SpillRetries counts spill/fill memory accesses this engine reissued
	// after an injected transient failure (bounded exponential backoff).
	SpillRetries int64 `json:"SpillRetries,omitempty"`
	// CreditsLost counts prefetch credit returns dropped by injected
	// credit-loss faults.
	CreditsLost int64 `json:"CreditsLost,omitempty"`
	// CreditsRecovered counts credits re-minted by the engine's
	// credit-leak audit once every marked line was accounted for.
	CreditsRecovered int64 `json:"CreditsRecovered,omitempty"`
	// Rescued counts tasks drained out of this engine when an injected
	// fault took it permanently offline.
	Rescued int64 `json:"Rescued,omitempty"`
}

// FaultStats aggregates injected-fault activity across one run. Run and
// RunSummary carry it as a pointer that stays nil in fault-free runs, so
// enabling the fault layer without a plan leaves the canonical JSON
// byte-identical to a build that predates it.
type FaultStats struct {
	// EngineStalls counts injected engine back-end stall events.
	EngineStalls int64 `json:"engine_stalls"`
	// EngineStallCyc sums the cycles engines spent in injected stalls.
	EngineStallCyc int64 `json:"engine_stall_cyc"`
	// NoCDelays counts mesh messages hit by an injected delay spike.
	NoCDelays int64 `json:"noc_delays"`
	// NoCDelayCyc sums the injected mesh delay cycles.
	NoCDelayCyc int64 `json:"noc_delay_cyc"`
	// DRAMRetries counts injected DRAM retry rounds.
	DRAMRetries int64 `json:"dram_retries"`
	// DRAMRetryCyc sums the injected DRAM retry latency cycles.
	DRAMRetryCyc int64 `json:"dram_retry_cyc"`
	// SpillRetries counts engine spill/fill accesses that transiently
	// failed and were reissued.
	SpillRetries int64 `json:"spill_retries"`
	// SpillBackoffCyc sums the exponential-backoff cycles spent before
	// spill/fill reissues.
	SpillBackoffCyc int64 `json:"spill_backoff_cyc"`
	// CreditsLost counts prefetch credit returns dropped in flight.
	CreditsLost int64 `json:"credits_lost"`
	// CreditsRecovered counts credits re-minted by the engines'
	// credit-leak audits.
	CreditsRecovered int64 `json:"credits_recovered"`
	// EnginesOffline counts engines taken permanently offline.
	EnginesOffline int64 `json:"engines_offline"`
	// Rescued counts tasks rescued from dying engines (and the global
	// worklist) into the software fallback worklist.
	Rescued int64 `json:"rescued"`
}

// ClassLatency reports one arrival class's per-task latency percentiles
// (cycles): queue wait is birth to dequeue, sojourn is birth to operator
// completion. Percentiles are exact nearest-rank values over the full
// sample set, not estimates.
type ClassLatency struct {
	// Class labels the generating clause ("0:poisson").
	Class string `json:"class"`
	// Injected counts this class's scheduled arrivals delivered to the
	// run.
	Injected int64 `json:"injected"`
	// Retired counts this class's arrivals whose operator application
	// completed.
	Retired int64 `json:"retired"`
	// WaitP50 is the median queue wait in cycles.
	WaitP50 int64 `json:"wait_p50"`
	// WaitP95 is the 95th-percentile queue wait in cycles.
	WaitP95 int64 `json:"wait_p95"`
	// WaitP99 is the 99th-percentile queue wait in cycles.
	WaitP99 int64 `json:"wait_p99"`
	// SojournP50 is the median sojourn in cycles.
	SojournP50 int64 `json:"sojourn_p50"`
	// SojournP95 is the 95th-percentile sojourn in cycles.
	SojournP95 int64 `json:"sojourn_p95"`
	// SojournP99 is the 99th-percentile sojourn in cycles.
	SojournP99 int64 `json:"sojourn_p99"`
}

// LatencyStats aggregates open-loop arrival latency across one run. Run
// and RunSummary carry it as a pointer that stays nil in closed-loop
// runs, so enabling the arrival layer without a plan leaves the
// canonical JSON byte-identical to a build that predates it. With a plan
// armed it is fully deterministic — arrivals are seeded and
// cycle-scheduled — and therefore part of the summary.
type LatencyStats struct {
	// Injected counts arrival tasks credited at birth across classes.
	Injected int64 `json:"injected"`
	// Retired counts arrival tasks that completed; a drained run retires
	// every injected task (the conservation checker pins it).
	Retired int64 `json:"retired"`
	// Classes holds per-class percentiles in clause order.
	Classes []ClassLatency `json:"classes"`
}

// Percentile returns the exact nearest-rank p-th percentile (p in
// (0,100]) of an ascending-sorted sample set, 0 when empty.
func Percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// Run captures everything measured during one simulated benchmark run:
// its deterministic RunSummary plus the host-side counters and
// observability attachments the summary excludes.
type Run struct {
	RunSummary

	// BoundSteps counts the SimSteps executed inside bound/weave bound
	// phases — the concurrency the horizon declarations actually bought.
	// It is a host-execution metric, not a simulated one: it varies with
	// IntraJobs and EpochWindow while the simulated outcome stays
	// byte-identical, so it is deliberately excluded from RunSummary.
	BoundSteps int64

	// Trace holds the engine event tail when tracing was enabled
	// (Config.TraceEvents); render it with EventTail.String.
	Trace *obs.EventTail
	// Intervals holds the time-series sampling rows when metrics
	// sampling was enabled (Config.MetricsEvery).
	Intervals *obs.Registry
	// Timeline holds the full-system event timeline when timeline
	// collection was enabled (Config.Timeline); render it with
	// Timeline.Perfetto.
	Timeline *obs.Timeline
	// Profile holds the refined cycle-attribution tree when the top-down
	// profiler was enabled (Config.Profile); render it with
	// Profile.Folded / Profile.Pprof / Profile.Stack.
	Profile *prof.Profile
}

// SumCores returns the element-wise sum of all core stats.
func (r *RunSummary) SumCores() CoreStats {
	var s CoreStats
	for i := range r.Cores {
		c := &r.Cores[i]
		for k := 0; k < int(numCats); k++ {
			s.Cycles[k] += c.Cycles[k]
		}
		s.Instrs += c.Instrs
		s.Loads += c.Loads
		s.Delinquent += c.Delinquent
		s.Branches += c.Branches
		s.Mispreds += c.Mispreds
		s.Atomics += c.Atomics
		s.TasksRun += c.TasksRun
		s.EnqOps += c.EnqOps
		s.DeqOps += c.DeqOps
		s.EnqCycles += c.EnqCycles
		s.DeqCycles += c.DeqCycles
	}
	return s
}

// L2MPKI returns L2 misses per thousand retired micro-ops.
func (r *RunSummary) L2MPKI() float64 {
	s := r.SumCores()
	if s.Instrs == 0 {
		return 0
	}
	return float64(r.L2.Misses) / float64(s.Instrs) * 1000
}

// DelinquentDensity returns the fraction of loads that were first accesses
// to node/edge/task data (Fig. 6).
func (r *RunSummary) DelinquentDensity() float64 {
	s := r.SumCores()
	if s.Loads == 0 {
		return 0
	}
	return float64(s.Delinquent) / float64(s.Loads)
}

// Breakdown returns the fraction of total core cycles per category.
func (r *RunSummary) Breakdown() [4]float64 {
	s := r.SumCores()
	tot := s.TotalCycles()
	var out [4]float64
	if tot == 0 {
		return out
	}
	for k := 0; k < int(numCats); k++ {
		out[k] = float64(s.Cycles[k]) / float64(tot)
	}
	return out
}

// AvgEnqCycles returns the mean cycles per worklist enqueue (Fig. 11).
func (r *RunSummary) AvgEnqCycles() float64 {
	s := r.SumCores()
	if s.EnqOps == 0 {
		return 0
	}
	return float64(s.EnqCycles) / float64(s.EnqOps)
}

// AvgDeqCycles returns the mean cycles per worklist dequeue (Fig. 11).
func (r *RunSummary) AvgDeqCycles() float64 {
	s := r.SumCores()
	if s.DeqOps == 0 {
		return 0
	}
	return float64(s.DeqCycles) / float64(s.DeqOps)
}

// Table renders rows as an aligned plain-text table.
type Table struct {
	Title   string     // optional heading printed above the table
	Headers []string   // column names
	Rows    [][]string // formatted cells, one slice per row
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// FormatFloat renders a float compactly: 3 significant-ish decimals for
// small values, fewer for large.
func FormatFloat(v float64) string {
	av := v
	if av < 0 {
		av = -av
	}
	switch {
	case av == 0:
		return "0"
	case av >= 1000:
		return fmt.Sprintf("%.0f", v)
	case av >= 10:
		return fmt.Sprintf("%.1f", v)
	case av >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (quotes are not needed
// for our numeric/identifier content).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Headers, ","))
	b.WriteByte('\n')
	for _, r := range t.Rows {
		b.WriteString(strings.Join(r, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// GeoMean returns the geometric mean of positive values; zero or negative
// inputs are skipped. Returns 0 for an empty input. The mean is computed
// as exp(mean(log v)) rather than as an n-th root of the running product,
// which over/underflows float64 once a large sweep accumulates a few
// hundred values far from 1.
func GeoMean(vals []float64) float64 {
	sum := 0.0
	n := 0
	for _, v := range vals {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Histogram is a simple fixed-bucket histogram used for degree and latency
// distributions in tests and tools.
type Histogram struct {
	Bounds []int64 // ascending upper bounds; last bucket is overflow
	Counts []int64 // observations per bucket (len(Bounds)+1)
}

// NewHistogram builds a histogram with the given ascending bucket bounds.
func NewHistogram(bounds ...int64) *Histogram {
	b := make([]int64, len(bounds))
	copy(b, bounds)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{Bounds: b, Counts: make([]int64, len(b)+1)}
}

// Add records one observation.
func (h *Histogram) Add(v int64) {
	for i, ub := range h.Bounds {
		if v <= ub {
			h.Counts[i]++
			return
		}
	}
	h.Counts[len(h.Bounds)]++
}

// Total returns the number of observations.
func (h *Histogram) Total() int64 {
	var t int64
	for _, c := range h.Counts {
		t += c
	}
	return t
}
