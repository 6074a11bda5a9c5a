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

	"minnow/internal/arrival"
	"minnow/internal/core"
	"minnow/internal/cpu"
	"minnow/internal/fault"
	"minnow/internal/graph"
	"minnow/internal/harness"
	"minnow/internal/kernels"
	"minnow/internal/stats"
	"minnow/internal/worklist"
)

// Config selects the simulated system and scheduler for a Run.
type Config struct {
	// Threads is the core count (default 8; the paper evaluates 64).
	Threads int `json:",omitempty"`
	// Scale multiplies the default input sizes (default 1).
	Scale int `json:",omitempty"`
	// Seed drives the graph generators (default 42).
	Seed uint64 `json:",omitempty"`

	// Minnow attaches a Minnow engine to every core and offloads the
	// worklist to it; otherwise the software scheduler below is used.
	Minnow bool `json:",omitempty"`
	// Prefetch enables worklist-directed prefetching (requires Minnow).
	Prefetch bool `json:",omitempty"`
	// Credits sets the prefetch credit pool (default 32, §5.3.1).
	Credits int `json:",omitempty"`

	// Scheduler picks the software worklist when Minnow is false:
	// "obim" (default), "fifo", "lifo", or "strictpq".
	Scheduler string `json:",omitempty"`
	// LgInterval overrides the OBIM/Minnow bucket interval (log2); nil
	// uses each benchmark's tuned default.
	LgInterval *uint `json:",omitempty"`

	// HWPrefetcher attaches a baseline hardware prefetcher to each core:
	// "stride" or "imp".
	HWPrefetcher string `json:",omitempty"`

	// SplitThreshold breaks tasks with more edges into subtasks
	// (§6.2.1); 0 disables splitting.
	SplitThreshold int32 `json:",omitempty"`
	// WorkBudget aborts runs after this many operator applications
	// (0 = unlimited); aborted runs report TimedOut.
	WorkBudget int64 `json:",omitempty"`
	// Serial elides atomics (the optimized 1-thread serial baseline).
	Serial bool `json:",omitempty"`
	// MemChannels sets the DRAM channel count (default 12).
	MemChannels int `json:",omitempty"`
	// PerfectBP / NoFences idealize the cores (Fig. 4 modes).
	PerfectBP, NoFences bool `json:",omitempty"`

	// CustomPrefetch overrides the benchmark's prefetch program (§5.3's
	// user-written prefetch function hook). Requires Minnow+Prefetch.
	CustomPrefetch PrefetchFunc `json:"-"`

	// SkipVerify disables the post-run check against the reference
	// implementation.
	SkipVerify bool `json:",omitempty"`

	// TraceEvents records the last N Minnow engine events; the rendered
	// log is returned in Result.TraceText (requires Minnow).
	TraceEvents int `json:",omitempty"`

	// MetricsEvery samples the time-series metrics (per-core IPC,
	// worklist occupancy, interval MPKI, prefetch accuracy, credit pool,
	// NoC/DRAM activity) every N simulated cycles; the interval CSV is
	// returned in Result.IntervalCSV. 0 disables sampling.
	MetricsEvery int64 `json:",omitempty"`
	// Timeline records a full-system event timeline (task spans, stalls,
	// cache misses, engine spill/fill/prefetch activity, counter tracks);
	// the Chrome-trace/Perfetto JSON is returned in Result.TimelineJSON.
	Timeline bool `json:",omitempty"`
	// Profile enables the top-down cycle-attribution profiler: every core
	// cycle is refined into stall cause × serving level × prefetch
	// outcome, keyed by attribution site. The folded-stack rendering is
	// returned in Result.Folded and the pprof protobuf in
	// Result.ProfilePprof. Off by default; observe-only.
	Profile bool `json:",omitempty"`
	// OnSample, when non-nil, is invoked at every crossed metrics-sample
	// boundary with the boundary's simulated cycle and the latest metrics
	// row in Prometheus text format (the live run inspector's feed).
	// Requires MetricsEvery > 0. The callback must not mutate simulation
	// state; it runs on the simulation goroutine.
	OnSample func(cycles int64, metrics string) `json:"-"`
	// Cancel, when non-nil, is a cooperative cancellation hook polled on
	// the watchdog cadence (every few tens of thousands of actor steps).
	// When it returns true the run is abandoned: Run returns an error
	// wrapping ErrCanceled and no Result. Like OnSample and
	// CustomPrefetch this is a host-only knob — it is not expressible in
	// JSON job submissions and is excluded from the service's cache key;
	// a run the hook never fires on is byte-identical to one without it.
	Cancel func() bool `json:"-"`

	// Faults arms the deterministic fault-injection plan: a preset name
	// ("transient", "offline", "chaos") or a clause expression such as
	// "seed=7;engine-stall:p=0.01,cycles=400;engine-offline:at=50000".
	// Empty disables injection. See docs/ROBUSTNESS.md for the grammar.
	Faults string `json:",omitempty"`
	// Arrivals arms the deterministic open-loop arrival plan: a preset
	// name ("steady", "burst", "waves", "trickle") or a clause expression
	// such as "seed=1;poisson:gap=600,count=400". Tasks are injected into
	// the live worklists at seeded, pre-scheduled cycles and their
	// queue-wait and sojourn percentiles are reported per arrival class
	// in Result.Latency. Empty keeps the run closed-loop. Only
	// re-entrant-operator benchmarks accept arrivals (not TC or BC). See
	// EXPERIMENTS.md's open-loop latency walkthrough for the grammar.
	Arrivals string `json:",omitempty"`
	// Invariants enables the runtime invariant checker (task
	// conservation, credit-pool accounting, cache/directory sanity) and
	// arms the no-progress watchdog.
	Invariants bool `json:",omitempty"`
	// MaxCycles halts runs whose simulated clock passes this bound with a
	// diagnostic snapshot instead of hanging (0 = a large default).
	MaxCycles int64 `json:",omitempty"`

	// IntraJobs selects the simulation kernel's execution mode: 0 (the
	// default) is the classic serial engine; n >= 1 runs the epoch-based
	// bound/weave engine with n host workers stepping provably
	// independent actors concurrently inside each epoch. Results are
	// byte-identical for every value — the differential equivalence suite
	// pins the contract — so this is purely a host-time knob.
	IntraJobs int `json:",omitempty"`
	// EpochWindow sets the bound/weave epoch length in cycles when
	// IntraJobs >= 1 (0 selects the default). Like IntraJobs it never
	// changes simulation output.
	EpochWindow int64 `json:",omitempty"`
	// SharedHorizons enables conservative-lookahead horizons for
	// shared-machine runs: idle worker backoffs become private steps the
	// bound/weave engine can execute concurrently, so a single big
	// simulation gains bound-phase coverage. Unlike IntraJobs and
	// EpochWindow this DOES change the step schedule (each idle wait
	// splits into poll + wait), so results are comparable only among
	// runs with the same setting; for a fixed setting output remains
	// byte-identical across engines and worker counts.
	SharedHorizons bool `json:",omitempty"`
}

// Validate rejects nonsensical configurations with a descriptive error
// before any simulation state is built. The zero value of every field is
// valid — it selects the documented default. Run, RunGraph, and the
// parallel runners all call this; command-line frontends can call it
// early to fail fast on bad flags.
//
// Error-message contract: every message has the form
// "minnow: <Field>: <reason>", naming the offending Config field first.
// These strings surface verbatim in minnowd's HTTP 400 bodies (see
// docs/SERVICE.md), so clients may dispatch on the field prefix;
// TestValidateErrorForm pins the exact texts.
func (c Config) Validate() error {
	switch {
	case c.Threads < 0:
		return fmt.Errorf("minnow: Threads: %d is negative (0 selects the default of 8)", c.Threads)
	case c.Threads > 64:
		return fmt.Errorf("minnow: Threads: %d exceeds 64, the coherence directory's sharer-mask width", c.Threads)
	case c.Scale < 0:
		return fmt.Errorf("minnow: Scale: %d is negative (0 selects the default of 1)", c.Scale)
	case c.Credits < 0:
		return fmt.Errorf("minnow: Credits: %d is negative — the prefetch credit pool needs at least one credit (0 selects the default of 32)", c.Credits)
	case c.SplitThreshold < 0:
		return fmt.Errorf("minnow: SplitThreshold: %d is negative (0 disables task splitting)", c.SplitThreshold)
	case c.WorkBudget < 0:
		return fmt.Errorf("minnow: WorkBudget: %d is negative (0 means unlimited)", c.WorkBudget)
	case c.MemChannels < 0:
		return fmt.Errorf("minnow: MemChannels: %d is negative (0 selects the default of 12)", c.MemChannels)
	case c.TraceEvents < 0:
		return fmt.Errorf("minnow: TraceEvents: %d is negative (0 disables event tracing)", c.TraceEvents)
	case c.MetricsEvery < 0:
		return fmt.Errorf("minnow: MetricsEvery: %d is negative (0 disables interval sampling)", c.MetricsEvery)
	case c.MaxCycles < 0:
		return fmt.Errorf("minnow: MaxCycles: %d is negative (0 selects a large default)", c.MaxCycles)
	case c.Serial && c.Threads > 1:
		return fmt.Errorf("minnow: Serial: elides atomics and is only sound with one thread (got Threads=%d)", c.Threads)
	case c.Prefetch && !c.Minnow:
		return fmt.Errorf("minnow: Prefetch: worklist-directed prefetching requires Minnow")
	case c.CustomPrefetch != nil && (!c.Minnow || !c.Prefetch):
		return fmt.Errorf("minnow: CustomPrefetch: requires Minnow and Prefetch")
	case c.Minnow && c.Scheduler != "" && c.Scheduler != "minnow":
		return fmt.Errorf("minnow: Scheduler: %q conflicts with Minnow — the engine owns the worklist", c.Scheduler)
	case c.OnSample != nil && c.MetricsEvery <= 0:
		return fmt.Errorf("minnow: OnSample: fires at metrics-sample boundaries and requires MetricsEvery > 0")
	case c.IntraJobs < 0:
		return fmt.Errorf("minnow: IntraJobs: %d is negative (0 selects the serial engine, n >= 1 the bound/weave engine with n workers)", c.IntraJobs)
	case c.EpochWindow < 0:
		return fmt.Errorf("minnow: EpochWindow: %d is negative (0 selects the default window)", c.EpochWindow)
	case c.EpochWindow > 0 && c.IntraJobs <= 0:
		return fmt.Errorf("minnow: EpochWindow: tunes the bound/weave engine and requires IntraJobs >= 1")
	}
	switch c.Scheduler {
	case "", "obim", "fifo", "lifo", "strictpq", "minnow":
	default:
		return fmt.Errorf("minnow: Scheduler: unknown %q (want obim, fifo, lifo, strictpq, or minnow)", c.Scheduler)
	}
	switch c.HWPrefetcher {
	case "", "stride", "imp":
	default:
		return fmt.Errorf("minnow: HWPrefetcher: unknown %q (want stride or imp)", c.HWPrefetcher)
	}
	if c.Faults != "" {
		if _, err := fault.ParsePlan(c.Faults); err != nil {
			return fmt.Errorf("minnow: Faults: invalid plan: %w", err)
		}
	}
	if c.Arrivals != "" {
		if _, err := arrival.ParsePlan(c.Arrivals); err != nil {
			return fmt.Errorf("minnow: Arrivals: invalid plan: %w", err)
		}
	}
	return nil
}

// Result reports a simulated run's headline metrics.
type Result struct {
	Benchmark  string
	Threads    int
	WallCycles int64 // end-to-end simulated cycles
	Tasks      int64 // operator applications (work-efficiency metric)
	TimedOut   bool

	// SimSteps is the number of discrete-event actor steps the run
	// executed; BoundSteps is how many of them ran inside bound/weave
	// bound phases (Config.IntraJobs >= 1) — the single-run concurrency
	// Config.SharedHorizons buys. BoundSteps is a host-execution metric
	// excluded from SummaryHash: it varies with IntraJobs/EpochWindow
	// while the simulated outcome stays byte-identical.
	SimSteps   int64
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
	Instructions       int64
	EnginePrefetches   int64
	AvgEnqueueCycles   float64
	AvgDequeueCycles   float64

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

// toOptions converts the public config to harness options. The only
// error source is an unparseable Faults plan, which Validate also
// rejects.
func (c Config) toOptions() (harness.Options, error) {
	o := harness.Options{
		Threads:        c.Threads,
		Scale:          c.Scale,
		Seed:           c.Seed,
		Scheduler:      c.Scheduler,
		Prefetch:       c.Prefetch,
		Credits:        c.Credits,
		HWPrefetcher:   c.HWPrefetcher,
		SplitThreshold: c.SplitThreshold,
		WorkBudget:     c.WorkBudget,
		Serial:         c.Serial,
		MemChannels:    c.MemChannels,
		SkipVerify:     c.SkipVerify,
		TraceEvents:    c.TraceEvents,
		MetricsEvery:   c.MetricsEvery,
		Timeline:       c.Timeline,
		Profile:        c.Profile,
		OnSample:       c.OnSample,
		Cancel:         c.Cancel,
		Invariants:     c.Invariants,
		MaxCycles:      c.MaxCycles,
		IntraJobs:      c.IntraJobs,
		EpochWindow:    c.EpochWindow,
		SharedHorizons: c.SharedHorizons,
	}
	if c.Minnow {
		o.Scheduler = "minnow"
	}
	if c.CustomPrefetch != nil {
		o.CustomPrefetch = prefetchBridge(c.CustomPrefetch)
	}
	if c.LgInterval != nil {
		o.LgInterval = *c.LgInterval
		o.LgIntervalSet = true
	}
	if c.PerfectBP || c.NoFences {
		cfg := cpu.DefaultConfig()
		cfg.PerfectBP = c.PerfectBP
		cfg.NoFences = c.NoFences
		o.CoreCfg = &cfg
	}
	if c.Faults != "" {
		plan, err := fault.ParsePlan(c.Faults)
		if err != nil {
			return o, fmt.Errorf("minnow: Faults: invalid plan: %w", err)
		}
		o.Faults = plan
	}
	if c.Arrivals != "" {
		plan, err := arrival.ParsePlan(c.Arrivals)
		if err != nil {
			return o, fmt.Errorf("minnow: Arrivals: invalid plan: %w", err)
		}
		o.Arrivals = plan
	}
	return o, nil
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
	o, err := cfg.toOptions()
	if err != nil {
		return nil, err
	}
	r, err := harness.Run(spec, o)
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
type Task struct {
	Priority       int64
	Node           int32
	EdgeLo, EdgeHi int32 // EdgeHi < 0: the whole node
}

// GraphView gives custom prefetch functions read access to the input
// graph's structure and simulated address layout.
type GraphView struct {
	g *graph.Graph
}

// NumNodes returns the node count.
func (v GraphView) NumNodes() int { return v.g.N }

// Degree returns node n's out-degree.
func (v GraphView) Degree(n int32) int32 { return v.g.Degree(n) }

// EdgeRange returns the CSR index range of n's outgoing edges.
func (v GraphView) EdgeRange(n int32) (lo, hi int32) { return v.g.EdgeRange(n) }

// Dest returns the destination of CSR edge i.
func (v GraphView) Dest(i int32) int32 { return v.g.Dests[i] }

// NodeAddr returns the simulated address of node n's record.
func (v GraphView) NodeAddr(n int32) uint64 { return v.g.NodeAddr(n) }

// EdgeAddr returns the simulated address of CSR edge i.
func (v GraphView) EdgeAddr(i int32) uint64 { return v.g.EdgeAddr(i) }

// PrefetchFunc is a user-written prefetch helper (§5.3): called once per
// scheduled task; each emit(addrs...) call becomes one engine threadlet
// whose loads issue sequentially (each address may depend on the previous
// load's data); separate emits overlap in the engine's load buffer.
type PrefetchFunc func(t Task, g GraphView, emit func(addrs ...uint64))

// prefetchBridge adapts the public PrefetchFunc onto the engine's
// program interface over the graph the harness built for the run.
func prefetchBridge(f PrefetchFunc) func(*graph.Graph) core.PrefetchProgram {
	return func(g *graph.Graph) core.PrefetchProgram {
		view := GraphView{g: g}
		return &core.FuncProgram{F: func(t worklist.Task, emit func(addrs ...uint64)) {
			f(Task{Priority: t.Priority, Node: t.Node, EdgeLo: t.EdgeLo, EdgeHi: t.EdgeHi}, view, emit)
		}}
	}
}

// Figures lists the regenerable tables and figures from the paper.
func Figures() []string {
	out := make([]string, 0, len(figureFns))
	for name := range figureFns {
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

// figureTables maps figure names to table-producing functions (used for
// CSV export; diagram-style multi-table outputs are text-only).
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

var figureFns = map[string]func(harness.FigOptions) (string, error){
	"table1": func(f harness.FigOptions) (string, error) { return harness.Table1(f).String(), nil },
	"table2": func(f harness.FigOptions) (string, error) { return tbl(harness.Table2(f)) },
	"table3": func(f harness.FigOptions) (string, error) { return harness.Table3(f).String(), nil },
	"fig2":   func(f harness.FigOptions) (string, error) { return tbl(harness.Fig2(f)) },
	"fig3":   func(f harness.FigOptions) (string, error) { return tbl(harness.Fig3(f)) },
	"fig4":   func(f harness.FigOptions) (string, error) { return tbl(harness.Fig4(f)) },
	"fig5":   func(f harness.FigOptions) (string, error) { return tbl(harness.Fig5(f)) },
	"fig6":   func(f harness.FigOptions) (string, error) { return tbl(harness.Fig6(f)) },
	"fig11":  func(f harness.FigOptions) (string, error) { return tbl(harness.Fig11(f)) },
	"fig15":  func(f harness.FigOptions) (string, error) { return tbl(harness.Fig15(f)) },
	"fig16":  func(f harness.FigOptions) (string, error) { return tbl(harness.Fig16(f)) },
	"fig17":  func(f harness.FigOptions) (string, error) { return tbl(harness.Fig17(f)) },
	"fig18":  func(f harness.FigOptions) (string, error) { return tbl(harness.Fig18(f)) },
	"fig19":  func(f harness.FigOptions) (string, error) { return tbl(harness.Fig19(f)) },
	"fig20":  func(f harness.FigOptions) (string, error) { return tbl(harness.Fig20(f)) },
	"fig21":  func(f harness.FigOptions) (string, error) { return tbl(harness.Fig21(f)) },
	"area":   func(harness.FigOptions) (string, error) { return harness.AreaTable().String(), nil },
	"ablations": func(f harness.FigOptions) (string, error) {
		return harness.Ablations(f)
	},
	"occupancy":     func(f harness.FigOptions) (string, error) { return tbl(harness.FigOccupancy(f)) },
	"mpki-interval": func(f harness.FigOptions) (string, error) { return tbl(harness.FigIntervalMPKI(f)) },
	"cpistack":      func(f harness.FigOptions) (string, error) { return tbl(harness.FigCPIStack(f)) },
	"sojourn":       func(f harness.FigOptions) (string, error) { return tbl(harness.FigSojourn(f)) },
}

func tbl(t interface{ String() string }, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return t.String(), nil
}

// RenderFigure regenerates one of the paper's tables or figures (see
// Figures for the names) as a plain-text table.
func RenderFigure(name string, opts FigureOptions) (string, error) {
	if err := opts.Validate(); err != nil {
		return "", err
	}
	fn, ok := figureFns[name]
	if !ok {
		return "", fmt.Errorf("minnow: unknown figure %q (have %v)", name, Figures())
	}
	return fn(opts.toFig())
}
