package harness

import (
	"fmt"

	"minnow/internal/arrival"
	"minnow/internal/core"
	"minnow/internal/fault"
	"minnow/internal/graph"
	"minnow/internal/worklist"
)

// Config selects the simulated system and scheduler for a run. It is the
// public minnow.Config (declared there as an alias) and the core of
// Options, so each knob is declared, documented, and defaulted once.
//
// Field classes: a field tagged knob:"host" only changes how the run
// executes on the host, and one tagged knob:"observe" only adds
// observation artifacts. Neither may change the run's RunSummary, so the
// service cache key leaves both out. Every untagged field can change the
// outcome. TestTaggedKnobsInert (package minnow) proves the first rule
// for every tagged field; TestCacheKeyExclusions (internal/service)
// proves the key follows the tags.
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
	// "obim" (default), "fifo", "lifo", or "strictpq". "minnow" selects
	// the engine, as Minnow does.
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
	// implementation. It only decides whether a failed check surfaces
	// as an error.
	SkipVerify bool `json:",omitempty" knob:"host"`

	// TraceEvents records the last N Minnow engine events; the rendered
	// log is returned in Result.TraceText (requires Minnow).
	TraceEvents int `json:",omitempty" knob:"observe"`

	// MetricsEvery samples the time-series metrics (per-core IPC,
	// worklist occupancy, interval MPKI, prefetch accuracy, credit pool,
	// NoC/DRAM activity) every N simulated cycles; the interval CSV is
	// returned in Result.IntervalCSV. 0 disables sampling.
	MetricsEvery int64 `json:",omitempty" knob:"observe"`
	// Timeline records a full-system event timeline (task spans, stalls,
	// cache misses, engine spill/fill/prefetch activity, counter tracks);
	// the Chrome-trace/Perfetto JSON is returned in Result.TimelineJSON.
	Timeline bool `json:",omitempty" knob:"observe"`
	// Profile enables the top-down cycle-attribution profiler: every core
	// cycle is refined into stall cause × serving level × prefetch
	// outcome, keyed by attribution site. The folded-stack rendering is
	// returned in Result.Folded and the pprof protobuf in
	// Result.ProfilePprof.
	Profile bool `json:",omitempty" knob:"observe"`
	// OnSample, when non-nil, is invoked at every crossed metrics-sample
	// boundary with the boundary's simulated cycle and the latest metrics
	// row in Prometheus text format (the live run inspector's feed).
	// Requires MetricsEvery > 0. The callback must not mutate simulation
	// state; it runs on the simulation goroutine.
	OnSample func(cycles int64, metrics string) `json:"-" knob:"observe"`
	// Cancel, when non-nil, is a cooperative cancellation hook polled on
	// the watchdog cadence (every few tens of thousands of actor steps).
	// When it returns true the run is abandoned: Run returns an error
	// wrapping ErrCanceled and no Result.
	Cancel func() bool `json:"-" knob:"host"`

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
	// bound/weave engine (sim.Engine.RunParallel) with n host workers
	// stepping provably independent actors concurrently inside each
	// epoch. IntraJobs = 1 exercises the full epoch machinery without
	// host concurrency. It shares the host-thread budget with run-level
	// parallelism; see SplitBudget.
	IntraJobs int `json:",omitempty" knob:"host"`
	// EpochWindow sets the bound/weave epoch length in cycles when
	// IntraJobs >= 1 (0 selects sim.DefaultEpochWindow). It trades
	// partition overhead against bound-phase batch size.
	EpochWindow int64 `json:",omitempty" knob:"host"`
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

// Upper bounds on knobs that size eager allocations, so a submitted
// configuration cannot exhaust host memory before the first simulated
// cycle. All sit far above any configuration the paper or this
// repository uses (Fig. 21 sweeps 1–12 channels; the -trace examples
// keep tens of events; the figures run Scale 2 and the benchmark Scale
// 4). maxScale is sized by the registry's largest input, PR's power-law
// graph: its superhubs' degree grows with the node count, so its build
// allocates with the square of Scale. It allocated 0.04 GB at Scale 4
// and 0.6 GB at Scale 16; each doubling of Scale quadruples that.
const (
	maxMemChannels = 1024
	maxTraceEvents = 1 << 20
	maxScale       = 32
)

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
	case c.Scale > maxScale:
		return fmt.Errorf("minnow: Scale: %d exceeds %d, the largest input scale a run may build", c.Scale, maxScale)
	case c.Credits < 0:
		return fmt.Errorf("minnow: Credits: %d is negative — the prefetch credit pool needs at least one credit (0 selects the default of 32)", c.Credits)
	case c.SplitThreshold < 0:
		return fmt.Errorf("minnow: SplitThreshold: %d is negative (0 disables task splitting)", c.SplitThreshold)
	case c.WorkBudget < 0:
		return fmt.Errorf("minnow: WorkBudget: %d is negative (0 means unlimited)", c.WorkBudget)
	case c.MemChannels < 0:
		return fmt.Errorf("minnow: MemChannels: %d is negative (0 selects the default of 12)", c.MemChannels)
	case c.MemChannels > maxMemChannels:
		return fmt.Errorf("minnow: MemChannels: %d exceeds %d, the most DRAM channels a run may allocate", c.MemChannels, maxMemChannels)
	case c.TraceEvents < 0:
		return fmt.Errorf("minnow: TraceEvents: %d is negative (0 disables event tracing)", c.TraceEvents)
	case c.TraceEvents > maxTraceEvents:
		return fmt.Errorf("minnow: TraceEvents: %d exceeds %d, the most event slots a run may preallocate", c.TraceEvents, maxTraceEvents)
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
	_, _, err := c.plans()
	return err
}

// WithDefaults returns c with every zero-valued default resolved:
// Threads 8, Scale 1, Seed 42, Credits 32, MemChannels 12, and
// Scheduler "obim" ("minnow" whenever Minnow is set). Run, the service
// cache key, and determinism reports all resolve through it, so an
// omitted knob and its explicit default are the same configuration.
func (c Config) WithDefaults() Config {
	if c.Threads == 0 {
		c.Threads = 8
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Credits == 0 {
		c.Credits = 32
	}
	if c.MemChannels == 0 {
		c.MemChannels = 12
	}
	if c.Minnow {
		c.Scheduler = "minnow"
	} else if c.Scheduler == "" {
		c.Scheduler = "obim"
	}
	return c
}

// plans parses the Faults and Arrivals expressions; each plan is nil
// when its expression is empty.
func (c Config) plans() (*fault.Plan, *arrival.Plan, error) {
	var fp *fault.Plan
	var ap *arrival.Plan
	var err error
	if c.Faults != "" {
		if fp, err = fault.ParsePlan(c.Faults); err != nil {
			return nil, nil, fmt.Errorf("minnow: Faults: invalid plan: %w", err)
		}
	}
	if c.Arrivals != "" {
		if ap, err = arrival.ParsePlan(c.Arrivals); err != nil {
			return nil, nil, fmt.Errorf("minnow: Arrivals: invalid plan: %w", err)
		}
	}
	return fp, ap, nil
}

// Task identifies one scheduled unit of work, exposed to custom prefetch
// functions.
type Task struct {
	// Priority is the task's scheduling priority (lower runs first).
	Priority int64
	// Node is the graph node the task operates on.
	Node           int32
	EdgeLo, EdgeHi int32 // CSR edge range; EdgeHi < 0: the whole node
}

// GraphView gives custom prefetch functions read access to the input
// graph's structure and simulated address layout.
type GraphView struct {
	g *graph.Graph
}

// NewGraphView wraps a bound input graph for custom prefetch functions.
func NewGraphView(g *graph.Graph) GraphView { return GraphView{g: g} }

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

// program adapts f onto the engine's program interface over the graph
// the run built.
func (f PrefetchFunc) program(g *graph.Graph) core.PrefetchProgram {
	view := NewGraphView(g)
	return &core.FuncProgram{F: func(t worklist.Task, emit func(addrs ...uint64)) {
		f(Task{Priority: t.Priority, Node: t.Node, EdgeLo: t.EdgeLo, EdgeHi: t.EdgeHi}, view, emit)
	}}
}
