// Package minnow is a simulation-based reproduction of "Minnow:
// Lightweight Offload Engines for Worklist Management and
// Worklist-Directed Prefetching" (Zhang, Ma, Thomson, Chiou — ASPLOS
// 2018).
//
// It bundles a deterministic discrete-event CMP simulator (out-of-order
// cores, three-level cache hierarchy with a mesh NoC and DDR channels), a
// Galois-like parallel task framework with OBIM/FIFO/LIFO/strict-priority
// worklists, the Minnow engine itself (worklist offload plus credit-
// throttled worklist-directed prefetching), hardware-prefetcher and
// GraphMat-style baselines, and the paper's seven graph benchmarks with
// synthetic input generators.
//
// Quick start:
//
//	res, err := minnow.Run("SSSP", minnow.Config{Threads: 8, Minnow: true, Prefetch: true})
//
// Every table and figure from the paper's evaluation can be regenerated
// through RenderFigure (or the cmd/figures binary).
package minnow

import (
	"flag"

	"minnow/internal/harness"
	"minnow/internal/kernels"
	"minnow/internal/stats"
)

// Config selects the simulated system and scheduler for a Run. Its
// fields, defaults (Config.WithDefaults), and checks (Config.Validate)
// are declared once, in the simulation harness; the zero value of every
// field selects its documented default. Fields tagged knob:"host" or
// knob:"observe" cannot change a run's SummaryHash.
type Config = harness.Config

// Result reports a simulated run's headline metrics.
type Result struct {
	Benchmark  string // the benchmark's name as passed to Run
	Threads    int    // resolved simulated core count
	WallCycles int64  // end-to-end simulated cycles
	Tasks      int64  // operator applications (work-efficiency metric)
	TimedOut   bool   // the run hit Config.WorkBudget before draining

	// SimSteps is the number of discrete-event actor steps the run
	// executed.
	SimSteps int64
	// BoundSteps is how many of SimSteps ran inside bound/weave bound
	// phases (Config.IntraJobs >= 1) — the single-run concurrency that
	// shared horizons buy. It is a host-execution metric excluded from
	// SummaryHash: it varies with IntraJobs/EpochWindow while the
	// simulated outcome stays byte-identical.
	BoundSteps int64

	// SummaryHash is the sha256 fingerprint of the run's deterministic
	// summary (stats.RunSummary) — the value the determinism and
	// serial/parallel equivalence checks compare. Always non-empty.
	SummaryHash string
	// SummaryJSON is the canonical stats.RunSummary JSON the hash is
	// computed over: the complete deterministic digest of the run (wall
	// cycles, per-core/cache/engine counters, fault totals). Two runs of
	// the same configuration produce byte-identical SummaryJSON — the
	// property minnowd's content-addressed result cache is built on.
	// Always non-nil.
	SummaryJSON []byte

	L2MPKI             float64    // demand L2 misses per kilo-instruction
	PrefetchEfficiency float64    // used-before-eviction / prefetch fills
	DelinquentDensity  float64    // Fig. 6 metric
	Breakdown          [4]float64 // useful / worklist / load-miss / store-miss
	Instructions       int64      // retired uops across all cores
	EnginePrefetches   int64      // loads issued by Minnow prefetch threadlets
	AvgEnqueueCycles   float64    // mean cycles per worklist enqueue
	AvgDequeueCycles   float64    // mean cycles per worklist dequeue

	// TraceText is the rendered engine event log (Config.TraceEvents).
	TraceText string
	// IntervalCSV is the time-series metrics table, one row per sampling
	// interval (Config.MetricsEvery). Empty when sampling was off.
	IntervalCSV string
	// TimelineJSON is the Chrome-trace/Perfetto rendering of the run's
	// event timeline (Config.Timeline); load it at ui.perfetto.dev. Nil
	// when timeline collection was off.
	TimelineJSON []byte
	// Folded is the profiler's folded-stack rendering (Config.Profile),
	// one "frame;frame;... cycles" line per attribution leaf — feed it to
	// flamegraph.pl or speedscope. Empty when profiling was off.
	Folded string
	// ProfilePprof is the profiler's gzipped pprof protobuf of simulated
	// cycles (Config.Profile) — inspect with `go tool pprof`. Nil when
	// profiling was off.
	ProfilePprof []byte

	// Faults counts the faults actually injected (Config.Faults). Nil
	// when fault injection was off.
	Faults *FaultReport

	// Latency reports open-loop arrival latency (Config.Arrivals). Nil
	// when the run was closed-loop.
	Latency *LatencyReport
}

// FaultReport summarizes one run's injected faults. Every counter is
// deterministic: the same Config (plan and seed included) reproduces the
// same report bit for bit.
type FaultReport struct {
	EngineStalls     int64 // transient engine back-end freezes
	NoCDelays        int64 // delayed mesh hops
	DRAMRetries      int64 // DRAM accesses that needed retries
	SpillRetries     int64 // spill lock acquisitions retried with backoff
	CreditsLost      int64 // prefetch credit-return messages dropped
	CreditsRecovered int64 // credits restored by leak recovery
	EnginesOffline   int64 // engines killed permanently mid-run
	TasksRescued     int64 // tasks drained from dead engines into software
}

// LatencyReport summarizes one open-loop run's arrival latency. Like
// FaultReport it is deterministic: the same Config (arrival plan and
// seed included) reproduces the same report bit for bit.
type LatencyReport struct {
	// Injected counts arrival tasks delivered to the run; Retired counts
	// those whose operator application completed. A drained run retires
	// every injected task.
	Injected, Retired int64
	// Classes holds per-arrival-class latency percentiles in clause
	// order.
	Classes []ClassLatency
}

// ClassLatency reports one arrival class's latency percentiles in
// simulated cycles: queue wait is birth to dequeue, sojourn is birth to
// operator completion.
type ClassLatency struct {
	// Class labels the generating clause, e.g. "0:poisson".
	Class string
	// Injected and Retired count this class's delivered and completed
	// arrivals.
	Injected, Retired int64
	// WaitP50, WaitP95, and WaitP99 are exact nearest-rank queue-wait
	// percentiles.
	WaitP50, WaitP95, WaitP99 int64
	// SojournP50, SojournP95, and SojournP99 are exact nearest-rank
	// sojourn percentiles.
	SojournP50, SojournP95, SojournP99 int64
}

// SplitBudget divides the host-thread budget between run-level
// parallelism (jobs: independent runs in flight) and intra-run
// parallelism (intraJobs: bound/weave workers inside each simulation).
// A non-positive jobs resolves to GOMAXPROCS (as RunMany's jobs <= 0
// does) divided by the effective intra width so jobs x intraJobs roughly
// fills the machine; intraJobs passes through unchanged (0 keeps the
// serial engine).
func SplitBudget(jobs, intraJobs int) (int, int) {
	return harness.SplitBudget(jobs, intraJobs)
}

// RegisterFlags defines a command-line flag on fs for every Config knob,
// bound to that field of c and defaulting to its current value; names
// fs already defines are skipped. See Config for the flag tags.
func RegisterFlags(fs *flag.FlagSet, c *Config) { harness.RegisterFlags(fs, c) }

// Benchmarks lists the available workloads: the paper's Table-2 suite
// plus extensions (currently KCORE, the §8 future-work demonstration).
func Benchmarks() []string {
	var out []string
	for _, s := range kernels.Suite() {
		out = append(out, s.Name)
	}
	for _, s := range kernels.Extensions() {
		out = append(out, s.Name)
	}
	return out
}

// ErrCanceled reports that a run was abandoned by the Config.Cancel
// hook. Errors returned by Run and RunGraph wrap it, so hosts can
// distinguish cancellation from real failures with errors.Is.
var ErrCanceled = harness.ErrCanceled

// Run simulates one benchmark under the configuration and verifies its
// result against the reference implementation.
func Run(benchmark string, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	spec, err := kernels.SpecByName(benchmark)
	if err != nil {
		return nil, err
	}
	r, err := harness.Run(spec, harness.Options{Config: cfg})
	if err != nil {
		return nil, err
	}
	return resultFrom(benchmark, r), nil
}

// resultFrom assembles the public result from a harness run.
func resultFrom(benchmark string, r *stats.Run) *Result {
	sum := r.SumCores()
	summary := r.Summary()
	res := &Result{
		Benchmark:          benchmark,
		Threads:            r.Threads,
		WallCycles:         r.WallCycles,
		Tasks:              r.WorkItems,
		TimedOut:           r.TimedOut,
		SimSteps:           r.SimSteps,
		BoundSteps:         r.BoundSteps,
		SummaryHash:        summary.Hash(),
		SummaryJSON:        summary.JSON(),
		L2MPKI:             r.L2MPKI(),
		PrefetchEfficiency: r.L2.Efficiency(),
		DelinquentDensity:  r.DelinquentDensity(),
		Breakdown:          r.Breakdown(),
		Instructions:       sum.Instrs,
		AvgEnqueueCycles:   r.AvgEnqCycles(),
		AvgDequeueCycles:   r.AvgDeqCycles(),
	}
	for _, e := range r.Engines {
		res.EnginePrefetches += e.Prefetches
	}
	if r.Trace != nil {
		res.TraceText = r.Trace.String()
	}
	if r.Intervals != nil {
		res.IntervalCSV = r.Intervals.CSV()
	}
	if r.Timeline != nil {
		res.TimelineJSON = r.Timeline.Perfetto()
	}
	if r.Profile != nil {
		res.Folded = r.Profile.Folded()
		res.ProfilePprof = r.Profile.Pprof()
	}
	if f := r.Faults; f != nil {
		res.Faults = &FaultReport{
			EngineStalls:     f.EngineStalls,
			NoCDelays:        f.NoCDelays,
			DRAMRetries:      f.DRAMRetries,
			SpillRetries:     f.SpillRetries,
			CreditsLost:      f.CreditsLost,
			CreditsRecovered: f.CreditsRecovered,
			EnginesOffline:   f.EnginesOffline,
			TasksRescued:     f.Rescued,
		}
	}
	if l := r.Latency; l != nil {
		lr := &LatencyReport{Injected: l.Injected, Retired: l.Retired}
		for _, c := range l.Classes {
			lr.Classes = append(lr.Classes, ClassLatency{
				Class:      c.Class,
				Injected:   c.Injected,
				Retired:    c.Retired,
				WaitP50:    c.WaitP50,
				WaitP95:    c.WaitP95,
				WaitP99:    c.WaitP99,
				SojournP50: c.SojournP50,
				SojournP95: c.SojournP95,
				SojournP99: c.SojournP99,
			})
		}
		res.Latency = lr
	}
	return res
}

// Task identifies one scheduled unit of work, exposed to custom prefetch
// functions.
type Task = harness.Task

// GraphView gives custom prefetch functions read access to the input
// graph's structure and simulated address layout.
type GraphView = harness.GraphView

// PrefetchFunc is a user-written prefetch helper (§5.3): called once per
// scheduled task; each emit(addrs...) call becomes one engine threadlet
// whose loads issue sequentially (each address may depend on the previous
// load's data); separate emits overlap in the engine's load buffer.
type PrefetchFunc = harness.PrefetchFunc

// Figures lists the regenerable tables and figures from the paper, in
// evaluation order.
func Figures() []string { return harness.FigureNames() }

// FigureOptions parameterizes figure regeneration: Threads (default 64,
// the paper's configuration), Scale (default 2), Seed (default 42),
// Quick (trimmed sweeps), and Jobs, the width of the worker pool that
// runs the figures' independent configurations (0 = all CPUs, 1 =
// serial; output is byte-identical for every value). Zero fields select
// the defaults; Validate rejects nonsensical values.
type FigureOptions = harness.FigOptions

// RenderFigures regenerates the named tables and figures (see Figures)
// as plain-text tables and as comma-separated values, one of each per
// name. It checks every name before simulating anything, and simulates
// each distinct configuration the figures share once.
func RenderFigures(names []string, opts FigureOptions) (text, csv []string, err error) {
	tables, _, err := harness.RenderFigures(names, opts)
	if err != nil {
		return nil, nil, err
	}
	for _, tb := range tables {
		text = append(text, tb.String())
		csv = append(csv, tb.CSV())
	}
	return text, csv, nil
}

// RenderFigure regenerates one of the paper's tables or figures (see
// Figures for the names) as a plain-text table and as comma-separated
// values, from a single simulation of its runs.
func RenderFigure(name string, opts FigureOptions) (text, csv string, err error) {
	texts, csvs, err := RenderFigures([]string{name}, opts)
	if err != nil {
		return "", "", err
	}
	return texts[0], csvs[0], nil
}
