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

	Sockets int // OBIM / Minnow global-worklist shards (0 = auto)
	// EngineSharing is how many cores share one Minnow engine (§4's
	// resource-sharing variant; 0/1 = dedicated engines).
	EngineSharing int
	// EngineLocalQ / EngineLoadBuf / EngineSpillBatch override the §5.1
	// structure sizes for the ablation studies (0 = defaults).
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

// resolve fills zero values: Config's defaults, then the harness-only
// ones.
func (o Options) resolve() Options {
	o.Config = o.WithDefaults()
	if o.Sockets == 0 {
		o.Sockets = (o.Threads + 7) / 8 // §6.2.1: 8 cores per socket
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = 1 << 40
	}
	return o
}

// Run executes one benchmark under the given options and returns its
// statistics. The result is verified against the kernel's reference
// implementation unless SkipVerify is set or the run timed out.
func Run(spec kernels.Spec, o Options) (*stats.Run, error) {
	o = o.resolve()
	faults, arrivals, err := o.plans()
	if err != nil {
		return nil, err
	}

	as := graph.NewAddrSpace()
	kern := spec.Build(o.Scale, o.Seed, as, o.Threads)
	lg := spec.LgInterval
	if o.LgInterval != nil {
		lg = *o.LgInterval
	}

	arr, err := buildArrivals(spec, kern, arrivals)
	if err != nil {
		return nil, err
	}

	msys := buildMem(o)
	cores := buildCores(o, msys)

	// Top-down profiler: attaching per-core collectors is the only
	// profiling hook — the cpu model mirrors every attributed cycle into
	// the collector, and nothing reads it until after the run drains.
	var pr *prof.Profile
	if o.Profile {
		pr = prof.New(spec.Name, o.Threads)
		pr.PCLabel = kernels.SiteLabel
		for i, c := range cores {
			c.Prof = pr.Core(i)
		}
	}

	// Fault injection: the injector and its hooks exist only when a plan
	// is armed, and each hook is installed only when its clause is live,
	// so disabled clauses draw nothing from the RNG streams and a nil
	// plan leaves the run bit-identical to a fault-free build.
	var inj *fault.Injector
	if faults != nil {
		inj = fault.NewInjector(faults)
		if faults.NoCDelay.P > 0 {
			msys.Mesh.FaultDelay = inj.NoCDelay
		}
		if faults.DRAMRetry.P > 0 {
			msys.DRAM.FaultRetry = inj.DRAMRetry
		}
	}

	// Scheduler.
	var sched galois.Scheduler
	var engines []*core.Engine
	var gwl *core.GlobalWL
	switch o.Scheduler {
	case "minnow":
		gwl = core.NewGlobalWL(as, o.Threads, o.Sockets)
		ecfg := core.DefaultConfig()
		ecfg.LgInterval = lg
		ecfg.Credits = o.Credits
		ecfg.Prefetch = o.Prefetch
		if o.EngineLocalQ > 0 {
			ecfg.LocalQ = o.EngineLocalQ
		}
		if o.EngineLoadBuf > 0 {
			ecfg.LoadBuf = o.EngineLoadBuf
		}
		if o.EngineSpillBatch > 0 {
			ecfg.SpillBatch = o.EngineSpillBatch
		}
		if o.Prefetch {
			ecfg.Program = spec.PrefetchProgram(kern.Graph())
			if o.CustomPrefetch != nil {
				ecfg.Program = o.CustomPrefetch.program(kern.Graph())
			}
		}
		share := o.EngineSharing
		if share < 1 {
			share = 1
		}
		for lo := 0; lo < o.Threads; lo += share {
			hi := lo + share
			if hi > o.Threads {
				hi = o.Threads
			}
			group := make([]int, 0, hi-lo)
			for c := lo; c < hi; c++ {
				group = append(group, c)
			}
			engines = append(engines, core.NewSharedEngine(group, ecfg, msys, gwl))
		}
		if inj != nil {
			for i, e := range engines {
				e.Inj = inj
				e.FaultID = i
			}
		}
		ms := core.NewMinnowScheduler(engines, o.Threads)
		if inj != nil && faults.OfflineAt > 0 {
			// Engine-offline plans get a software OBIM fallback the cores
			// degrade to when their engine dies mid-run. Allocated here
			// (not lazily) so AddrSpace layout is fixed at setup.
			ms.EnableFailover(inj, gwl, worklist.NewOBIM(as, o.Threads, o.Sockets, lg))
		}
		msys.OnCredit = func(c int, used bool) { ms.EngineFor(c).CreditReturn(used) }
		sched = ms
	case "obim":
		sched = &galois.SWScheduler{WL: worklist.NewOBIM(as, o.Threads, o.Sockets, lg)}
	case "fifo":
		sched = &galois.SWScheduler{WL: worklist.NewFIFO(as, o.Threads)}
	case "lifo":
		sched = &galois.SWScheduler{WL: worklist.NewLIFO(as, o.Threads)}
	case "strictpq":
		sched = &galois.SWScheduler{WL: worklist.NewStrictPQ(as)}
	default:
		return nil, fmt.Errorf("harness: unknown scheduler %q", o.Scheduler)
	}
	var swWL worklist.Worklist
	if sw, ok := sched.(*galois.SWScheduler); ok {
		swWL = sw.WL
	} else if ms, ok := sched.(*core.MinnowScheduler); ok {
		swWL = ms.Fallback() // nil unless failover is armed
	}

	attachHWPrefetchers(o, cores, msys, kern.Graph())

	cfg := galois.Config{
		Threads:        o.Threads,
		SplitThreshold: o.SplitThreshold,
		WorkBudget:     o.WorkBudget,
		Serial:         o.Serial,
		SharedHorizons: o.SharedHorizons,
	}
	runner := galois.NewRunner(cfg, cores, sched, kern, kern.Graph().Degree)
	if arr != nil {
		arr.runner = runner
		arr.rec = galois.NewLatencyRecorder(len(arrivals.Classes))
		runner.SetLatency(arr.rec)
	}

	ob := buildObserver(o, cores, runner.Workers(), engines, gwl, swWL, msys, inj, arr)

	// Simulation: workers and engines are actors.
	eng := sim.NewEngine()
	ob.install(eng, engines, gwl, swWL, msys, inj, arr)
	workerIDs := make([]int, 0, len(runner.Workers()))
	for _, w := range runner.Workers() {
		id := eng.Register(w)
		eng.Wake(id, 0)
		workerIDs = append(workerIDs, id)
	}
	for _, e := range engines {
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

	runner.Seed(kern.InitialTasks())

	wd := installWatchdog(eng, o, inj, runner, arr)

	drained := runEngine(eng, o)
	if eng.Canceled() {
		return nil, fmt.Errorf("harness: %s/%s: %w at cycle %d after %d steps",
			spec.Name, o.Scheduler, ErrCanceled, eng.Now(), eng.Steps())
	}
	if eng.Halted() {
		snap := collectSnapshot(wd.reason, eng, runner, engines, gwl, swWL, msys, inj)
		return nil, fmt.Errorf("harness: %s/%s halted by watchdog: %s\n%s",
			spec.Name, o.Scheduler, wd.reason, snap)
	}
	if !drained && !runner.TimedOut() {
		return nil, fmt.Errorf("harness: %s/%s exceeded %d simulation steps (livelock?)",
			spec.Name, o.Scheduler, maxSteps)
	}

	if o.Invariants {
		if msgs := checkInvariants(o, drained, runner, engines, gwl, swWL, msys, arr); len(msgs) > 0 {
			return nil, fmt.Errorf("harness: %s/%s invariant violations:\n  %s",
				spec.Name, o.Scheduler, strings.Join(msgs, "\n  "))
		}
	}

	run := collect(spec.Name, o, cores, engines, msys, runner)
	if inj != nil {
		fs := inj.Stats
		run.Faults = &fs
	}
	if arr != nil {
		run.Latency = arr.latencyStats()
	}
	run.SimSteps = eng.Steps()
	run.BoundSteps = eng.BoundSteps()
	run.Trace = ob.tail
	if ob.reg != nil {
		// Close out the partial last interval so tail activity is not
		// silently dropped (the boundary probe only fires on crossings).
		ob.reg.Flush(sim.Time(run.WallCycles))
		run.Intervals = ob.reg
	}
	run.Timeline = ob.tl
	run.Profile = pr

	if !o.SkipVerify && !run.TimedOut {
		if err := kern.Verify(); err != nil {
			return nil, fmt.Errorf("harness: %s/%s verification failed: %w", spec.Name, o.Scheduler, err)
		}
	}
	return run, nil
}

// runEngine drains the simulation with the execution mode Options
// selects: the serial engine, or the epoch-based bound/weave engine with
// IntraJobs host workers. The two are byte-identical on every drained
// run (the differential equivalence suite pins it), so everything after
// this call is mode-agnostic.
func runEngine(eng *sim.Engine, o Options) bool {
	if o.IntraJobs <= 0 {
		_, drained := eng.Run(maxSteps)
		return drained
	}
	_, drained := eng.RunParallel(maxSteps, sim.Time(o.EpochWindow), o.IntraJobs)
	return drained
}

// collect assembles the stats.Run from all components.
func collect(name string, o Options, cores []*cpu.Core, engines []*core.Engine, msys *mem.System, runner *galois.Runner) *stats.Run {
	run := &stats.Run{RunSummary: stats.RunSummary{
		Name:      name,
		Threads:   o.Threads,
		TimedOut:  runner.TimedOut(),
		WorkItems: runner.Applied(),
		DRAMReads: msys.DRAMReads,
		InvMsgs:   msys.InvMsgs,
		DRAMStall: msys.DRAM.StallCyc,
		NoCStall:  msys.Mesh.StallCyc,

		WastePFEvict:     msys.WastePFEvict,
		WasteDemandEvict: msys.WasteDemandEvict,
		WasteInval:       msys.WasteInval,
		L1Shielded:       msys.L1ShieldedHits,
	}}
	for _, c := range cores {
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
	for _, e := range engines {
		e.Stat.ClockEnd = int64(e.Clock())
		run.Engines = append(run.Engines, e.Stat)
	}
	return run
}

func buildMem(o Options) *mem.System {
	mcfg := mem.DefaultConfig(o.Threads)
	mcfg.ScaleCaches(cacheScale)
	mcfg.DRAM.Channels = o.MemChannels
	return mem.NewSystem(mcfg)
}

func buildCores(o Options, msys *mem.System) []*cpu.Core {
	ccfg := cpu.DefaultConfig()
	if o.CoreCfg != nil {
		ccfg = *o.CoreCfg
	}
	ccfg.PerfectBP = ccfg.PerfectBP || o.PerfectBP
	ccfg.NoFences = ccfg.NoFences || o.NoFences
	cores := make([]*cpu.Core, o.Threads)
	for i := range cores {
		cores[i] = cpu.New(i, ccfg, msys)
	}
	return cores
}

// attachHWPrefetchers wires stride/IMP baselines to the cores.
func attachHWPrefetchers(o Options, cores []*cpu.Core, msys *mem.System, g *graph.Graph) {
	switch o.HWPrefetcher {
	case "stride":
		for i, c := range cores {
			c.Prefetcher = prefetch.NewStride(i, msys, 4)
		}
	case "imp":
		resolve := csrResolve(g)
		for i, c := range cores {
			c.Prefetcher = prefetch.NewIMP(i, msys, 4, resolve)
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

// RunGraphMat executes a workload under the GraphMat-like BSP baseline and
// returns its result (wall cycles for Fig. 2/3 normalization).
func RunGraphMat(bench string, o Options) (graphmat.Result, error) {
	o = o.resolve()
	spec, err := kernels.SpecByName(bench)
	if err != nil {
		return graphmat.Result{}, err
	}
	g := spec.Graph(o.Scale, o.Seed, graph.NewAddrSpace())
	src := spec.SourceNode(g)
	msys := buildMem(o)
	cores := buildCores(o, msys)
	// GraphMat's sequential frontier sweeps benefit from its tuned
	// streaming: attach the stride prefetcher (standing in for its
	// software prefetch + the host's L2 streamer).
	for i, c := range cores {
		c.Prefetcher = prefetch.NewStride(i, msys, 4)
	}

	var prog graphmat.Program
	switch bench {
	case "SSSP":
		prog = graphmat.NewSSSP(g, src)
	case "BFS", "G500":
		prog = graphmat.NewBFS(g, src)
	case "CC":
		prog = graphmat.NewCC(g)
	case "PR":
		prog = graphmat.NewPR(g, kernels.PRDamping, 1e-3)
	default:
		return graphmat.Result{}, fmt.Errorf("harness: no GraphMat program for %q", bench)
	}
	r := graphmat.Runner{G: g, Cores: cores, Prog: prog, Budget: o.WorkBudget}
	res := r.Run()
	if !o.SkipVerify && !res.TimedOut {
		if err := prog.Verify(); err != nil {
			return res, fmt.Errorf("harness: graphmat %s verification failed: %w", bench, err)
		}
	}
	return res, nil
}

// RunGMatStar executes the GMat* bucketed delta-stepping SSSP (§3.1).
func RunGMatStar(o Options, lgInterval uint) (graphmat.Result, error) {
	o = o.resolve()
	spec, err := kernels.SpecByName("SSSP")
	if err != nil {
		return graphmat.Result{}, err
	}
	g := spec.Graph(o.Scale, o.Seed, graph.NewAddrSpace())
	msys := buildMem(o)
	cores := buildCores(o, msys)
	for i, c := range cores {
		c.Prefetcher = prefetch.NewStride(i, msys, 4)
	}
	k := graphmat.NewGMatStar(g, spec.SourceNode(g), lgInterval)
	res := k.Run(cores, o.WorkBudget)
	if !o.SkipVerify && !res.TimedOut {
		if err := k.Verify(); err != nil {
			return res, fmt.Errorf("harness: gmat* verification failed: %w", err)
		}
	}
	return res, nil
}
