package harness

import (
	"errors"
	"fmt"
	"strings"

	"minnow/internal/core"
	"minnow/internal/cpu"
	"minnow/internal/fault"
	"minnow/internal/galois"
	"minnow/internal/graph"
	"minnow/internal/graphmat"
	"minnow/internal/kernels"
	"minnow/internal/mem"
	"minnow/internal/obs"
	"minnow/internal/prefetch"
	"minnow/internal/prof"
	"minnow/internal/sim"
	"minnow/internal/stats"
	"minnow/internal/worklist"
)

// ErrCanceled reports that a run was abandoned by the Config.Cancel
// hook. Errors returned by Run wrap it, so hosts distinguish
// cancellation from real failures with errors.Is.
var ErrCanceled = errors.New("run canceled")

// Options configures one simulated run: Config plus the ablation-only
// fields that exist solely inside the harness.
type Options struct {
	Config

	Sockets int // OBIM / Minnow global-worklist shards (0 = one per 8 cores)
	// EngineSharing is how many cores share one Minnow engine (§4's
	// resource-sharing variant; 0/1 = dedicated engines).
	EngineSharing int
	// EngineLocalQ / EngineLoadBuf / EngineSpillBatch override the §5.1
	// structure sizes for the ablation studies (0 = core.DefaultConfig's).
	EngineLocalQ, EngineLoadBuf, EngineSpillBatch int

	// CoreCfg replaces the Table-3 core (nil = defaults); Config's
	// PerfectBP and NoFences still apply on top of it.
	CoreCfg *cpu.Config
}

// cacheScale divides all cache capacities so scaled-down inputs remain
// DRAM-resident.
const cacheScale = 16

// maxSteps bounds total simulation actor steps as a liveness guard.
const maxSteps = 2_000_000_000

// resolve writes out every default: Config's (WithDefaults), spec's
// tuned LgInterval, one socket per 8 cores, core.DefaultConfig's engine
// structure sizes, dedicated engines and the cycle budget. An omitted
// field and its explicit default are therefore the same run.
func (o Options) resolve(spec kernels.Spec) Options {
	o.Config = o.WithDefaults()
	if o.LgInterval == nil {
		lg := spec.LgInterval
		o.LgInterval = &lg
	}
	if o.Sockets == 0 {
		o.Sockets = (o.Threads + 7) / 8 // §6.2.1: 8 cores per socket
	}
	e := core.DefaultConfig()
	if o.EngineLocalQ == 0 {
		o.EngineLocalQ = e.LocalQ
	}
	if o.EngineLoadBuf == 0 {
		o.EngineLoadBuf = e.LoadBuf
	}
	if o.EngineSpillBatch == 0 {
		o.EngineSpillBatch = e.SpillBatch
	}
	o.EngineSharing = max(o.EngineSharing, 1)
	if o.MaxCycles == 0 {
		o.MaxCycles = 1 << 40
	}
	return o
}

// machine is one run's assembled system. Run builds every component
// once, here, and the observer wiring, the watchdog poll, the snapshot,
// the invariant checker and collect read them from it.
type machine struct {
	o       Options
	eng     *sim.Engine
	msys    *mem.System
	cores   []*cpu.Core
	runner  *galois.Runner
	engines []*core.Engine    // Minnow engines; empty under a software scheduler
	gwl     *core.GlobalWL    // Minnow's global worklist; nil under a software scheduler
	swWL    worklist.Worklist // the software worklist, or Minnow's failover; nil when neither
	inj     *fault.Injector   // nil unless a fault plan is armed
	arr     *arrivalActor     // nil unless an arrival plan is armed
	prof    *prof.Profile     // nil unless Config.Profile

	tl   *obs.Timeline
	reg  *obs.Registry
	tail *obs.EventTail // engine event tail (Config.TraceEvents)

	// Watchdog state: the no-progress arm's counters and, once the poll
	// stops the run, which arm fired.
	lastApplied int64
	strikes     int
	reason      string // why a liveness arm halted the run; "" otherwise
	canceled    bool   // Config.Cancel stopped the run
}

// newMachine builds the memory system and cores every run starts from.
func newMachine(o Options) *machine {
	m := &machine{o: o, eng: sim.NewEngine(), msys: buildMem(o), lastApplied: -1}
	ccfg := cpu.DefaultConfig()
	if o.CoreCfg != nil {
		ccfg = *o.CoreCfg
	}
	ccfg.PerfectBP = ccfg.PerfectBP || o.PerfectBP
	ccfg.NoFences = ccfg.NoFences || o.NoFences
	m.cores = make([]*cpu.Core, o.Threads)
	for i := range m.cores {
		m.cores[i] = cpu.New(i, ccfg, m.msys)
	}
	return m
}

// Run executes one benchmark under the given options and returns its
// statistics. The result is verified against the kernel's reference
// implementation unless SkipVerify is set or the run timed out.
func Run(spec kernels.Spec, o Options) (*stats.Run, error) {
	o = o.resolve(spec)
	m, kern, err := assemble(spec, o)
	if err != nil {
		return nil, err
	}
	drained := m.runEngine()
	if m.canceled {
		return nil, fmt.Errorf("harness: %s/%s: %w at cycle %d after %d steps",
			spec.Name, o.Scheduler, ErrCanceled, m.eng.Now(), m.eng.Steps())
	}
	if m.eng.Halted() {
		return nil, fmt.Errorf("harness: %s/%s halted by watchdog: %s\n%s",
			spec.Name, o.Scheduler, m.reason, m.snapshot())
	}
	if !drained && !m.runner.TimedOut() {
		return nil, fmt.Errorf("harness: %s/%s exceeded %d simulation steps (livelock?)",
			spec.Name, o.Scheduler, maxSteps)
	}

	if o.Invariants {
		if msgs := m.checkInvariants(drained); len(msgs) > 0 {
			return nil, fmt.Errorf("harness: %s/%s invariant violations:\n  %s",
				spec.Name, o.Scheduler, strings.Join(msgs, "\n  "))
		}
	}

	run := m.collect(spec.Name)
	if !o.SkipVerify && !run.TimedOut {
		if err := kern.Verify(); err != nil {
			return nil, fmt.Errorf("harness: %s/%s verification failed: %w", spec.Name, o.Scheduler, err)
		}
	}
	return run, nil
}

// assemble builds spec's input and the machine o describes, wires its
// observers and watchdog, and seeds the initial tasks. Components are
// built in a fixed order, because the address space hands out addresses
// in allocation order.
func assemble(spec kernels.Spec, o Options) (*machine, kernels.Kernel, error) {
	faults, arrivals, err := o.plans()
	if err != nil {
		return nil, nil, err
	}

	as := graph.NewAddrSpace()
	kern := spec.Build(o.Scale, o.Seed, as, o.Threads)

	arr, err := buildArrivals(spec, kern, arrivals)
	if err != nil {
		return nil, nil, err
	}

	m := newMachine(o)
	m.arr = arr

	// Top-down profiler: attaching per-core collectors is the only
	// profiling hook — the cpu model mirrors every attributed cycle into
	// the collector, and nothing reads it until after the run drains.
	if o.Profile {
		m.prof = prof.New(spec.Name, o.Threads)
		m.prof.PCLabel = kernels.SiteLabel
		for i, c := range m.cores {
			c.Prof = m.prof.Core(i)
		}
	}

	// Fault injection: the injector and its hooks exist only when a plan
	// is armed, and each hook is installed only when its clause is live,
	// so disabled clauses draw nothing from the RNG streams and a nil
	// plan leaves the run bit-identical to a fault-free build.
	if faults != nil {
		m.inj = fault.NewInjector(faults)
		if faults.NoCDelay.P > 0 {
			m.msys.Mesh.FaultDelay = m.inj.NoCDelay
		}
		if faults.DRAMRetry.P > 0 {
			m.msys.DRAM.FaultRetry = m.inj.DRAMRetry
		}
	}

	sched, err := m.buildScheduler(spec, kern.Graph(), as)
	if err != nil {
		return nil, nil, err
	}
	m.attachHWPrefetchers(o.HWPrefetcher, kern.Graph())

	cfg := galois.Config{
		Threads:        o.Threads,
		SplitThreshold: o.SplitThreshold,
		WorkBudget:     o.WorkBudget,
		Serial:         o.Serial,
		SharedHorizons: o.SharedHorizons,
	}
	m.runner = galois.NewRunner(cfg, m.cores, sched, kern, kern.Graph().Degree)
	if arr != nil {
		arr.runner = m.runner
		arr.rec = galois.NewLatencyRecorder(len(arrivals.Classes))
		m.runner.SetLatency(arr.rec)
	}

	m.observe()

	// Simulation: workers and engines are actors.
	eng := m.eng
	workerIDs := make([]int, 0, len(m.runner.Workers()))
	for _, w := range m.runner.Workers() {
		id := eng.Register(w)
		eng.Wake(id, 0)
		workerIDs = append(workerIDs, id)
	}
	for _, e := range m.engines {
		id := eng.Register(e)
		e.SetWake(func(at sim.Time) { eng.Wake(id, at) })
	}
	if arr != nil && len(arr.events) > 0 {
		// Registered after workers and engines so that at a shared
		// instant the injection step runs last — an arrival never
		// preempts same-cycle machine work. Wakes from its weave step
		// re-arm retired workers per the engine's wake-during-step
		// contract.
		arr.wakeWorkers = func(at sim.Time) {
			for _, id := range workerIDs {
				eng.Wake(id, at)
			}
		}
		aid := eng.Register(arr)
		eng.Wake(aid, sim.Time(arr.events[0].At))
	}

	m.runner.Seed(kern.InitialTasks())
	eng.SetWatchdog(watchdogEvery, m.poll)
	return m, kern, nil
}

// buildScheduler builds o.Scheduler's worklist fabric — Minnow's global
// worklist and engines, or one software worklist — into the machine.
func (m *machine) buildScheduler(spec kernels.Spec, g *graph.Graph, as *graph.AddrSpace) (galois.Scheduler, error) {
	o, lg := m.o, *m.o.LgInterval
	switch o.Scheduler {
	case "minnow":
		m.gwl = core.NewGlobalWL(as, o.Threads, o.Sockets)
		ecfg := core.DefaultConfig()
		ecfg.LgInterval = lg
		ecfg.Credits = o.Credits
		ecfg.Prefetch = o.Prefetch
		ecfg.LocalQ = o.EngineLocalQ
		ecfg.LoadBuf = o.EngineLoadBuf
		ecfg.SpillBatch = o.EngineSpillBatch
		if o.Prefetch {
			ecfg.Program = spec.PrefetchProgram(g)
			if o.CustomPrefetch != nil {
				ecfg.Program = o.CustomPrefetch.program(g)
			}
		}
		for lo := 0; lo < o.Threads; lo += o.EngineSharing {
			hi := min(lo+o.EngineSharing, o.Threads)
			group := make([]int, 0, hi-lo)
			for c := lo; c < hi; c++ {
				group = append(group, c)
			}
			m.engines = append(m.engines, core.NewSharedEngine(group, ecfg, m.msys, m.gwl))
		}
		if m.inj != nil {
			for i, e := range m.engines {
				e.Inj = m.inj
				e.FaultID = i
			}
		}
		ms := core.NewMinnowScheduler(m.engines, o.Threads)
		if m.inj != nil && m.inj.Plan().OfflineAt > 0 {
			// Engine-offline plans get a software OBIM fallback the cores
			// degrade to when their engine dies mid-run. Allocated here
			// (not lazily) so AddrSpace layout is fixed at setup.
			ms.EnableFailover(m.inj, m.gwl, worklist.NewOBIM(as, o.Threads, o.Sockets, lg))
		}
		m.msys.OnCredit = func(c int, used bool) { ms.EngineFor(c).CreditReturn(used) }
		m.swWL = ms.Fallback() // nil unless failover is armed
		return ms, nil
	case "obim":
		m.swWL = worklist.NewOBIM(as, o.Threads, o.Sockets, lg)
	case "fifo":
		m.swWL = worklist.NewFIFO(as, o.Threads)
	case "lifo":
		m.swWL = worklist.NewLIFO(as, o.Threads)
	case "strictpq":
		m.swWL = worklist.NewStrictPQ(as)
	default:
		return nil, fmt.Errorf("harness: unknown scheduler %q", o.Scheduler)
	}
	return &galois.SWScheduler{WL: m.swWL}, nil
}

// runEngine drains the simulation with the execution mode Options
// selects: the serial engine, or the epoch-based bound/weave engine with
// IntraJobs host workers. The two are byte-identical on every drained
// run (the differential equivalence suite pins it), so everything after
// this call is mode-agnostic.
func (m *machine) runEngine() bool {
	if m.o.IntraJobs <= 0 {
		_, drained := m.eng.Run(maxSteps)
		return drained
	}
	_, drained := m.eng.RunParallel(maxSteps, sim.Time(m.o.EpochWindow), m.o.IntraJobs)
	return drained
}

// collect assembles the stats.Run from all components, closing out the
// sampling registry's partial last interval.
func (m *machine) collect(name string) *stats.Run {
	run := m.summarize(name)
	run.TimedOut = m.runner.TimedOut()
	run.WorkItems = m.runner.Applied()
	for _, e := range m.engines {
		e.Stat.ClockEnd = int64(e.Clock())
		run.Engines = append(run.Engines, e.Stat)
	}
	if m.inj != nil {
		fs := m.inj.Stats
		run.Faults = &fs
	}
	if m.arr != nil {
		run.Latency = m.arr.latencyStats()
	}
	run.SimSteps = m.eng.Steps()
	run.BoundSteps = m.eng.BoundSteps()
	run.Trace = m.tail
	if m.reg != nil {
		// Close out the partial last interval so tail activity is not
		// silently dropped (the boundary probe only fires on crossings).
		m.reg.Flush(sim.Time(run.WallCycles))
		run.Intervals = m.reg
	}
	run.Timeline = m.tl
	run.Profile = m.prof
	return run
}

// summarize reads the cores and the memory system into a stats.Run: the
// part of collect every framework shares. WallCycles is the latest core
// clock.
func (m *machine) summarize(name string) *stats.Run {
	msys := m.msys
	run := &stats.Run{RunSummary: stats.RunSummary{
		Name:      name,
		Threads:   m.o.Threads,
		DRAMReads: msys.DRAMReads,
		InvMsgs:   msys.InvMsgs,
		DRAMStall: msys.DRAM.StallCyc,
		NoCStall:  msys.Mesh.StallCyc,

		WastePFEvict:     msys.WastePFEvict,
		WasteDemandEvict: msys.WasteDemandEvict,
		WasteInval:       msys.WasteInval,
		L1Shielded:       msys.L1ShieldedHits,
	}}
	for _, c := range m.cores {
		run.Cores = append(run.Cores, c.Stat)
		if c.Now() > sim.Time(run.WallCycles) {
			run.WallCycles = int64(c.Now())
		}
	}
	l2 := msys.L2Counters()
	run.L2 = stats.CacheStats{
		Accesses:      msys.DemandL2Accesses,
		Misses:        msys.DemandL2Misses,
		Evictions:     l2.Evictions,
		Writebacks:    l2.Writebacks,
		PrefetchFills: l2.PrefetchFills,
		PrefetchUsed:  l2.PrefetchUsed,
		PrefetchWaste: l2.PrefetchWaste,
	}
	l3 := msys.L3Counters()
	run.L3 = stats.CacheStats{
		Accesses:   l3.Accesses,
		Misses:     l3.Misses,
		Evictions:  l3.Evictions,
		Writebacks: l3.Writebacks,
	}
	if msys.DemandCount > 0 {
		run.AvgLoadLat = float64(msys.DemandLatencySum) / float64(msys.DemandCount)
	}
	run.DirtyRemote = msys.DirtyRemote
	run.LatByLevel = msys.LatByLevel
	run.CntByLevel = msys.CntByLevel
	return run
}

func buildMem(o Options) *mem.System {
	mcfg := mem.DefaultConfig(o.Threads)
	mcfg.ScaleCaches(cacheScale)
	mcfg.DRAM.Channels = o.MemChannels
	return mem.NewSystem(mcfg)
}

// attachHWPrefetchers wires a "stride" or "imp" baseline prefetcher to
// every core ("" attaches none).
func (m *machine) attachHWPrefetchers(kind string, g *graph.Graph) {
	switch kind {
	case "stride":
		for i, c := range m.cores {
			c.Prefetcher = prefetch.NewStride(i, m.msys, 4)
		}
	case "imp":
		resolve := csrResolve(g)
		for i, c := range m.cores {
			c.Prefetcher = prefetch.NewIMP(i, m.msys, 4, resolve)
		}
	}
}

// csrResolve maps an edge-record address to the destination node address —
// the A[B[i]] semantics IMP reads out of the cached index value.
func csrResolve(g *graph.Graph) func(uint64) (uint64, bool) {
	base := g.EdgeAddr(0)
	limit := base + uint64(g.NumEdges())*graph.EdgeBytes
	return func(addr uint64) (uint64, bool) {
		if addr < base || addr >= limit {
			return 0, false
		}
		idx := int32((addr - base) / graph.EdgeBytes)
		return g.NodeAddr(g.Dests[idx]), true
	}
}

// RunGraphMat executes a workload under the GraphMat-like BSP baseline,
// running the program its catalogue entry declares, and returns its
// statistics (wall cycles for Fig. 2/3 normalization).
func RunGraphMat(bench string, o Options) (*stats.Run, error) {
	return runBSP(bench, o, func(spec kernels.Spec, g *graph.Graph, src int32, _ Options) (graphmat.Runner, error) {
		if spec.GraphMat == nil {
			return graphmat.Runner{}, fmt.Errorf("harness: no GraphMat program for %q", bench)
		}
		return graphmat.Runner{Prog: spec.GraphMat(g, src)}, nil
	})
}

// RunGMatStar executes the GMat* bucketed delta-stepping SSSP (§3.1),
// with LgInterval (default: SSSP's) as its bucket interval.
func RunGMatStar(o Options) (*stats.Run, error) {
	return runBSP("SSSP", o, func(_ kernels.Spec, g *graph.Graph, src int32, o Options) (graphmat.Runner, error) {
		k := graphmat.NewGMatStar(g, src, *o.LgInterval)
		return graphmat.Runner{Prog: k, Frontier: k.Frontier()}, nil
	})
}

// runBSP is the step the GraphMat baselines share: it builds bench's
// input and a machine, asks newRunner for the program and frontier with
// the resolved options, runs them on the machine's cores under the work
// budget, summarizes the machine with the run's wall cycles, work items
// and timeout, and checks the program's answer unless SkipVerify is set
// or the run timed out. Every core carries a stride prefetcher:
// GraphMat's sequential frontier sweeps benefit from its tuned streaming
// (its software prefetch plus the host's L2 streamer).
func runBSP(bench string, o Options, newRunner func(spec kernels.Spec, g *graph.Graph, src int32, o Options) (graphmat.Runner, error)) (*stats.Run, error) {
	spec, err := kernels.SpecByName(bench)
	if err != nil {
		return nil, err
	}
	o = o.resolve(spec)
	g := spec.Graph(o.Scale, o.Seed, graph.NewAddrSpace())
	m := newMachine(o)
	m.attachHWPrefetchers("stride", g)
	bsp, err := newRunner(spec, g, spec.SourceNode(g), o)
	if err != nil {
		return nil, err
	}
	bsp.G, bsp.Cores, bsp.Budget = g, m.cores, o.WorkBudget
	res := bsp.Run()
	r := m.summarize(bench)
	r.WallCycles, r.WorkItems, r.TimedOut = int64(res.Wall), res.WorkItems, res.TimedOut
	if o.SkipVerify || res.TimedOut {
		return r, nil
	}
	if err := bsp.Prog.Verify(); err != nil {
		return nil, fmt.Errorf("harness: graphmat %s verification failed: %w", bench, err)
	}
	return r, nil
}
