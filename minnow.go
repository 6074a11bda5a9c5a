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
	"fmt"
	"sort"

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

// Figures lists the regenerable tables and figures from the paper.
func Figures() []string {
	out := make([]string, 0, len(figureTables)+len(textFigures))
	for name := range figureTables {
		out = append(out, name)
	}
	for name := range textFigures {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// FigureOptions parameterizes figure regeneration.
type FigureOptions struct {
	Threads int    // default 64 (the paper's configuration)
	Scale   int    // default 1
	Seed    uint64 // default 42
	Quick   bool   // trimmed sweeps
	// Jobs bounds the worker pool that runs a figure's independent
	// configurations concurrently (0 = all CPUs, 1 = serial). Output is
	// byte-identical for every value.
	Jobs int
}

// Validate rejects nonsensical figure options with a descriptive error;
// zero values select the documented defaults. Messages follow the same
// "minnow: <Field>: <reason>" form as Config.Validate.
func (f FigureOptions) Validate() error {
	switch {
	case f.Threads < 0:
		return fmt.Errorf("minnow: Threads: figure thread count %d is negative (0 selects the default of 64)", f.Threads)
	case f.Threads > 64:
		return fmt.Errorf("minnow: Threads: figure thread count %d exceeds 64, the coherence directory's sharer-mask width", f.Threads)
	case f.Scale < 0:
		return fmt.Errorf("minnow: Scale: figure scale %d is negative (0 selects the default of 1)", f.Scale)
	case f.Jobs < 0:
		return fmt.Errorf("minnow: Jobs: figure worker count %d is negative (0 means all CPUs)", f.Jobs)
	}
	return nil
}

func (f FigureOptions) toFig() harness.FigOptions {
	o := harness.DefaultFigOptions()
	if f.Threads > 0 {
		o.Threads = f.Threads
	}
	if f.Scale > 0 {
		o.Scale = f.Scale
	}
	if f.Seed != 0 {
		o.Seed = f.Seed
	}
	o.Quick = f.Quick
	o.Jobs = f.Jobs
	return o
}

// figureTables maps figure names to table-producing functions; each
// renders as text through Table.String and as CSV.
var figureTables = map[string]func(harness.FigOptions) (*stats.Table, error){
	"table1": func(f harness.FigOptions) (*stats.Table, error) { return harness.Table1(f), nil },
	"table2": harness.Table2,
	"table3": func(f harness.FigOptions) (*stats.Table, error) { return harness.Table3(f), nil },
	"fig2":   harness.Fig2,
	"fig3":   harness.Fig3,
	"fig4":   harness.Fig4,
	"fig5":   harness.Fig5,
	"fig6":   harness.Fig6,
	"fig11":  harness.Fig11,
	"fig15":  harness.Fig15,
	"fig16":  harness.Fig16,
	"fig17":  harness.Fig17,
	"fig18":  harness.Fig18,
	"fig19":  harness.Fig19,
	"fig20":  harness.Fig20,
	"fig21":  harness.Fig21,
	"area":   func(harness.FigOptions) (*stats.Table, error) { return harness.AreaTable(), nil },

	// Time-resolved views built on the interval-sampling registry.
	"occupancy":     harness.FigOccupancy,
	"mpki-interval": harness.FigIntervalMPKI,

	// Open-loop latency: sojourn percentiles vs offered load.
	"sojourn": harness.FigSojourn,

	// Refined Fig. 5 through the top-down profiler.
	"cpistack": harness.FigCPIStack,
}

// RenderFigureCSV regenerates a figure as comma-separated values.
func RenderFigureCSV(name string, opts FigureOptions) (string, error) {
	if err := opts.Validate(); err != nil {
		return "", err
	}
	fn, ok := figureTables[name]
	if !ok {
		return "", fmt.Errorf("minnow: figure %q has no CSV form (have %v)", name, Figures())
	}
	tb, err := fn(opts.toFig())
	if err != nil {
		return "", err
	}
	return tb.CSV(), nil
}

// textFigures holds the multi-table outputs that have a text form only.
var textFigures = map[string]func(harness.FigOptions) (string, error){
	"ablations": harness.Ablations,
}

// RenderFigure regenerates one of the paper's tables or figures (see
// Figures for the names) as a plain-text table.
func RenderFigure(name string, opts FigureOptions) (string, error) {
	if err := opts.Validate(); err != nil {
		return "", err
	}
	if fn, ok := textFigures[name]; ok {
		return fn(opts.toFig())
	}
	fn, ok := figureTables[name]
	if !ok {
		return "", fmt.Errorf("minnow: unknown figure %q (have %v)", name, Figures())
	}
	tb, err := fn(opts.toFig())
	if err != nil {
		return "", err
	}
	return tb.String(), nil
}
