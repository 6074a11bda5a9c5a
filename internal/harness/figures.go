package harness

import (
	"fmt"

	"minnow/internal/core"
	"minnow/internal/cpu"
	"minnow/internal/graph"
	"minnow/internal/kernels"
	"minnow/internal/stats"
)

// FigOptions parameterizes the experiment suite.
type FigOptions struct {
	Threads int    // paper configuration: 64
	Scale   int    // input scale (1 = laptop defaults)
	Seed    uint64 // generator seed
	Quick   bool   // trims sweeps for fast CI / benchmarks
	// Jobs bounds the worker pool that fans a figure's independent
	// configurations out across goroutines (0 = GOMAXPROCS, 1 = serial).
	// Each simulation stays single-goroutine and results are consumed in
	// submission order, so every figure is byte-identical for any Jobs.
	Jobs int
}

// DefaultFigOptions mirrors the paper's 64-thread setup. Inputs run at
// scale 2 so 64 threads stay fed (scale 1 inputs starve high thread
// counts; see EXPERIMENTS.md).
func DefaultFigOptions() FigOptions {
	return FigOptions{Threads: 64, Scale: 2, Seed: 42}
}

// QuickFigOptions is the fast configuration used by the benchmark harness.
func QuickFigOptions() FigOptions {
	return FigOptions{Threads: 8, Scale: 1, Seed: 42, Quick: true}
}

// base builds the standard run options.
func (f FigOptions) base() Options {
	return Options{Config: Config{
		Threads:        f.Threads,
		Scale:          f.Scale,
		Seed:           f.Seed,
		SplitThreshold: 512, // §6.2.1 task splitting (10K in the paper, scaled with inputs)
	}}
}

// benchNames returns the benchmark subset for the options.
func (f FigOptions) benchNames() []string {
	if f.Quick {
		return []string{"SSSP", "CC", "TC"}
	}
	return []string{"SSSP", "BFS", "G500", "CC", "PR", "TC", "BC"}
}

// runOrErr wraps Run with the spec lookup.
func runOrErr(bench string, o Options) (*stats.Run, error) {
	spec, err := kernels.SpecByName(bench)
	if err != nil {
		return nil, err
	}
	return Run(spec, o)
}

// runAll fans one figure's independent configurations out over the worker
// pool and returns their runs in submission order (first error wins).
func (f FigOptions) runAll(jobs []Job) ([]*stats.Run, error) {
	res := RunJobs(jobs, f.Jobs)
	runs := make([]*stats.Run, len(res))
	for i, r := range res {
		if r.Err != nil {
			return nil, r.Err
		}
		runs[i] = r.Run
	}
	return runs, nil
}

// Table1 regenerates the graph-input inventory (paper Table 1) for our
// synthetic equivalents.
func Table1(f FigOptions) *stats.Table {
	t := &stats.Table{
		Title:   "Table 1: evaluated graph inputs (synthetic equivalents)",
		Headers: []string{"name", "stands-for", "nodes", "edges", "est.diam", "largest-node", "size-MB"},
	}
	for _, spec := range kernels.Suite() {
		g := spec.Graph(f.Scale, f.Seed, graph.NewAddrSpace())
		_, maxDeg := g.MaxDegreeNode()
		t.AddRow(g.Name, spec.PaperInput, g.N, g.NumEdges(), g.EstimateDiameter(0), maxDeg,
			float64(g.SizeBytes())/1e6)
	}
	return t
}

// Table2 regenerates the benchmark configuration table with measured
// single-threaded serial-baseline cycles (paper Table 2's "Cycles").
func Table2(f FigOptions) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Table 2: benchmark configuration (serial-baseline cycles)",
		Headers: []string{"workload", "input", "serial-cycles", "tasks"},
	}
	var jobs []Job
	for _, name := range f.benchNames() {
		o := f.base()
		o.Threads = 1
		o.Serial = true
		jobs = append(jobs, Job{Bench: name, Opts: o})
	}
	runs, err := f.runAll(jobs)
	if err != nil {
		return nil, err
	}
	for i, name := range f.benchNames() {
		spec, _ := kernels.SpecByName(name)
		t.AddRow(name, spec.PaperInput, runs[i].WallCycles, runs[i].WorkItems)
	}
	return t, nil
}

// Table3 prints the simulated microarchitecture configuration (paper
// Table 3) alongside the scaled values this run actually uses.
func Table3(f FigOptions) *stats.Table {
	o := f.base().resolve()
	m := buildMem(o).Config()
	c := cpu.DefaultConfig()
	e := core.DefaultConfig()
	t := &stats.Table{
		Title:   "Table 3: microarchitecture configuration (paper spec -> scaled sim values)",
		Headers: []string{"component", "paper", "simulated"},
	}
	t.AddRow("cores", "64 Skylake-like, 2.5GHz", fmt.Sprintf("%d interval-model cores", o.Threads))
	t.AddRow("branch predictor", "64Kb 5-table TAGE", "64Kb 5-table TAGE")
	t.AddRow("reservation station", "97 entries", fmt.Sprintf("%d entries", c.RS))
	t.AddRow("load/store queue", "72 / 56", fmt.Sprintf("%d / %d", c.LoadQueue, c.StoreQueue))
	t.AddRow("reorder buffer", "224", fmt.Sprintf("%d", c.ROB))
	t.AddRow("L1D", "32KB 8-way 4cyc", fmt.Sprintf("%dKB %d-way %dcyc", m.L1Lines*64/1024, m.L1Assoc, m.L1Latency))
	t.AddRow("L2", "256KB 8-way 7cyc", fmt.Sprintf("%dKB %d-way %dcyc", m.L2Lines*64/1024, m.L2Assoc, m.L2Latency))
	t.AddRow("L3", "2MB/core 16-way 27cyc", fmt.Sprintf("%dKB/core %d-way %dcyc", m.L3BankLines*64/1024, m.L3Assoc, m.L3Latency))
	t.AddRow("NoC", "8x8 mesh, 3cyc/hop", fmt.Sprintf("%dx%d mesh, %dcyc/hop", m.MeshW, m.MeshH, m.HopCycles))
	t.AddRow("main memory", "12-ch DDR4-2400", fmt.Sprintf("%d-ch, %dcyc, %dcyc/line", m.DRAM.Channels, m.DRAM.LatencyCycles, m.DRAM.ServiceCycles))
	t.AddRow("minnow localQ", "64 entries, 10cyc", fmt.Sprintf("%d entries, %dcyc", e.LocalQ, e.LocalQLatency))
	t.AddRow("minnow loadQ", "32 entries, 4cyc wakeup", fmt.Sprintf("%d entries, %dcyc wakeup", e.LoadBuf, e.LoadBufWake))
	return t
}

// Fig2 regenerates the Galois-vs-GraphMat comparison (paper Fig. 2):
// speedup at 10 threads normalized to 1-thread GraphMat. GMat* is the
// authors' per-bucket delta-stepping retrofit (SSSP only).
func Fig2(f FigOptions) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Fig 2: speedup at 10 threads normalized to 1-thread GraphMat",
		Headers: []string{"workload", "gmat-10t", "galois-obim", "galois-fifo", "gmat*"},
	}
	benches := []string{"SSSP", "BFS", "G500", "CC", "PR"}
	if f.Quick {
		benches = []string{"SSSP", "CC"}
	}
	const threads = 10
	for _, name := range benches {
		o := f.base()
		o.Threads = threads
		o.WorkBudget = workBudget(f)
		// Fig. 2 is a real-machine (Xeon) measurement in the paper: both
		// frameworks enjoy the host's hardware prefetchers.
		o.HWPrefetcher = "stride"

		o1 := o
		o1.Threads = 1
		o1.HWPrefetcher = ""
		gm1, err := RunGraphMat(name, o1)
		if err != nil {
			return nil, err
		}
		gm10, err := RunGraphMat(name, o)
		if err != nil {
			return nil, err
		}
		obim, err := runOrErr(name, o)
		if err != nil {
			return nil, err
		}
		of := o
		of.Scheduler = "fifo"
		of.SkipVerify = true // FIFO may time out on ordering-sensitive runs
		fifo, err := runOrErr(name, of)
		if err != nil {
			return nil, err
		}
		gstar := "-"
		if name == "SSSP" {
			// GMat*'s per-bucket kernel launches are expensive, so its
			// tuned bucket interval is much larger than OBIM's (§3.1).
			gs, err := RunGMatStar(o, 15)
			if err != nil {
				return nil, err
			}
			gstar = stats.FormatFloat(ratioOrTimeout(int64(gm1.Wall), int64(gs.Wall), gs.TimedOut))
		}
		t.AddRow(name,
			ratioOrTimeout(int64(gm1.Wall), int64(gm10.Wall), gm10.TimedOut),
			ratioOrTimeout(int64(gm1.Wall), obim.WallCycles, obim.TimedOut),
			ratioOrTimeout(int64(gm1.Wall), fifo.WallCycles, fifo.TimedOut),
			gstar)
	}
	return t, nil
}

// ratioOrTimeout returns base/x, or 0 for timed-out runs.
func ratioOrTimeout(base, x int64, timedOut bool) float64 {
	if timedOut || x == 0 {
		return 0
	}
	return float64(base) / float64(x)
}

// workBudget bounds runaway scheduler configurations (Fig. 3 timeouts).
func workBudget(f FigOptions) int64 {
	return int64(4_000_000) * int64(f.Scale)
}

// Fig3 regenerates the scheduler-policy comparison (paper Fig. 3):
// runtime normalized to GraphMat at 10 threads; 0 marks a timeout.
func Fig3(f FigOptions) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Fig 3: runtime normalized to GraphMat, 10 threads (lower is better; 'timeout' = exceeded work budget)",
		Headers: []string{"workload", "fifo", "lifo(carbon)", "obim-lg2", "obim-tuned", "obim-lg16", "strict-pq"},
	}
	benches := []string{"SSSP", "BFS", "CC", "PR"}
	if f.Quick {
		benches = []string{"SSSP"}
	}
	const threads = 10
	for _, name := range benches {
		o := f.base()
		o.Threads = threads
		o.WorkBudget = workBudget(f)
		o.SkipVerify = true
		// Real-machine comparison: host prefetchers on for every policy.
		o.HWPrefetcher = "stride"

		o1 := o
		o1.Threads = 1
		o1.HWPrefetcher = ""
		gm, err := RunGraphMat(name, o1)
		if err != nil {
			return nil, err
		}
		cell := func(sched string, lg int) string {
			oo := o
			oo.Scheduler = sched
			if lg >= 0 {
				lgv := uint(lg)
				oo.LgInterval = &lgv
			}
			r, err2 := runOrErr(name, oo)
			if err2 != nil {
				err = err2
				return "err"
			}
			if r.TimedOut {
				return "timeout"
			}
			return stats.FormatFloat(float64(r.WallCycles) / float64(gm.Wall))
		}
		spec, _ := kernels.SpecByName(name)
		tuned := spec.LgInterval
		row := []any{name,
			cell("fifo", -1), cell("lifo", -1),
			cell("obim", 2), cell("obim", int(tuned)), cell("obim", 16),
			cell("strictpq", -1)}
		if err != nil {
			return nil, err
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig4 regenerates the ROB sensitivity sweep (paper Fig. 4): speedup vs
// ROB size, normalized to the 256-entry configuration, for the realistic
// core and for ideal variants with perfect branch prediction and no
// fences.
func Fig4(f FigOptions) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Fig 4: speedup vs ROB size, normalized to 256-entry ROB (realistic vs ideal)",
		Headers: []string{"workload", "mode", "rob-64", "rob-128", "rob-256", "rob-512"},
	}
	robs := []int{64, 128, 256, 512}
	benches := f.benchNames()
	if f.Quick {
		benches = []string{"SSSP", "PR"}
	}
	modes := []struct {
		name      string
		perfectBP bool
		noFences  bool
	}{
		{"realistic", false, false},
		{"perfect-bp", true, false},
		{"bp+nofence", true, true},
	}
	var jobs []Job
	for _, name := range benches {
		for _, m := range modes {
			for _, rob := range robs {
				cfg := cpu.ScaledROB(rob)
				cfg.PerfectBP = m.perfectBP
				cfg.NoFences = m.noFences
				o := f.base()
				o.CoreCfg = &cfg
				// The sweep changes the execution schedule, which moves
				// PR's leftover sub-epsilon residuals around; the
				// reference check is not meaningful here.
				o.SkipVerify = true
				jobs = append(jobs, Job{Bench: name, Opts: o})
			}
		}
	}
	runs, err := f.runAll(jobs)
	if err != nil {
		return nil, err
	}
	k := 0
	for _, name := range benches {
		for _, m := range modes {
			walls := make([]int64, len(robs))
			var base int64
			for i, rob := range robs {
				walls[i] = runs[k].WallCycles
				if rob == 256 {
					base = runs[k].WallCycles
				}
				k++
			}
			row := []any{name, m.name}
			for _, w := range walls {
				row = append(row, float64(base)/float64(w))
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}

// Fig5 regenerates the Galois overhead breakdown (paper Fig. 5): fraction
// of core cycles spent on useful work, worklist operations, and load/store
// miss stalls at full thread count.
func Fig5(f FigOptions) (*stats.Table, error) {
	t := &stats.Table{
		Title:   fmt.Sprintf("Fig 5: cycle breakdown at %d threads (software baseline)", f.Threads),
		Headers: []string{"workload", "useful", "worklist", "load-miss", "store-miss"},
	}
	var jobs []Job
	for _, name := range f.benchNames() {
		jobs = append(jobs, Job{Bench: name, Opts: f.base()})
	}
	runs, err := f.runAll(jobs)
	if err != nil {
		return nil, err
	}
	for i, name := range f.benchNames() {
		bd := runs[i].Breakdown()
		t.AddRow(name, bd[0], bd[1], bd[2], bd[3])
	}
	return t, nil
}

// Fig6 regenerates delinquent load density (paper Fig. 6).
func Fig6(f FigOptions) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Fig 6: delinquent load density (frequently-missing loads / all loads)",
		Headers: []string{"workload", "density"},
	}
	var jobs []Job
	for _, name := range f.benchNames() {
		o := f.base()
		o.Threads = min(f.Threads, 8) // density is thread-count-insensitive
		jobs = append(jobs, Job{Bench: name, Opts: o})
	}
	runs, err := f.runAll(jobs)
	if err != nil {
		return nil, err
	}
	for i, name := range f.benchNames() {
		t.AddRow(name, runs[i].DelinquentDensity())
	}
	return t, nil
}

// Fig11 regenerates the average worklist operation cost (paper Fig. 11):
// cycles per enqueue/dequeue for the software worklist vs Minnow offload.
func Fig11(f FigOptions) (*stats.Table, error) {
	t := &stats.Table{
		Title:   fmt.Sprintf("Fig 11: average cycles per worklist operation at %d threads", f.Threads),
		Headers: []string{"workload", "galois-enq", "galois-deq", "minnow-enq", "minnow-deq"},
	}
	var jobs []Job
	for _, name := range f.benchNames() {
		om := f.base()
		om.Scheduler = "minnow"
		jobs = append(jobs, Job{Bench: name, Opts: f.base()}, Job{Bench: name, Opts: om})
	}
	runs, err := f.runAll(jobs)
	if err != nil {
		return nil, err
	}
	for i, name := range f.benchNames() {
		sw, mn := runs[2*i], runs[2*i+1]
		t.AddRow(name, sw.AvgEnqCycles(), sw.AvgDeqCycles(), mn.AvgEnqCycles(), mn.AvgDeqCycles())
	}
	return t, nil
}

// Fig15 regenerates the scalability curves (paper Fig. 15): speedup over
// the optimized serial baseline from 1 to Threads threads, Galois vs
// Minnow (prefetching disabled to isolate offload).
func Fig15(f FigOptions) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Fig 15: speedup vs optimized serial baseline (Minnow without prefetching)",
		Headers: []string{"workload", "sched", "t1", "t2", "t4", "t8", "t16", "t32", "t64"},
	}
	threadSet := []int{1, 2, 4, 8, 16, 32, 64}
	if f.Quick {
		threadSet = []int{1, 4, 8}
		t.Headers = []string{"workload", "sched", "t1", "t4", "t8"}
	}
	var jobs []Job
	for _, name := range f.benchNames() {
		oser := f.base()
		oser.Threads = 1
		oser.Serial = true
		jobs = append(jobs, Job{Bench: name, Opts: oser})
		for _, sched := range []string{"obim", "minnow"} {
			for _, th := range threadSet {
				if th > f.Threads {
					continue
				}
				o := f.base()
				o.Threads = th
				o.Scheduler = sched
				jobs = append(jobs, Job{Bench: name, Opts: o})
			}
		}
	}
	runs, err := f.runAll(jobs)
	if err != nil {
		return nil, err
	}
	k := 0
	for _, name := range f.benchNames() {
		ser := runs[k]
		k++
		for _, sched := range []string{"obim", "minnow"} {
			row := []any{name, sched}
			for _, th := range threadSet {
				if th > f.Threads {
					row = append(row, "-")
					continue
				}
				row = append(row, float64(ser.WallCycles)/float64(runs[k].WallCycles))
				k++
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}

// Fig16 regenerates the headline result (paper Fig. 16): overall Minnow
// speedup over the optimized software baseline, with and without
// worklist-directed prefetching, plus the averages (paper: 2.96x / 6.01x).
func Fig16(f FigOptions) (*stats.Table, error) {
	t := &stats.Table{
		Title:   fmt.Sprintf("Fig 16: Minnow speedup over software baseline at %d threads", f.Threads),
		Headers: []string{"workload", "minnow", "minnow+prefetch"},
	}
	var jobs []Job
	for _, name := range f.benchNames() {
		om := f.base()
		om.Scheduler = "minnow"
		om1 := om
		om1.Prefetch = true
		jobs = append(jobs,
			Job{Bench: name, Opts: f.base()},
			Job{Bench: name, Opts: om},
			Job{Bench: name, Opts: om1})
	}
	runs, err := f.runAll(jobs)
	if err != nil {
		return nil, err
	}
	var noPF, withPF []float64
	for i, name := range f.benchNames() {
		base, m0, m1 := runs[3*i], runs[3*i+1], runs[3*i+2]
		s0 := float64(base.WallCycles) / float64(m0.WallCycles)
		s1 := float64(base.WallCycles) / float64(m1.WallCycles)
		noPF = append(noPF, s0)
		withPF = append(withPF, s1)
		t.AddRow(name, s0, s1)
	}
	t.AddRow("geomean", stats.GeoMean(noPF), stats.GeoMean(withPF))
	return t, nil
}

// Fig17 regenerates the prefetcher comparison (paper Fig. 17): stride,
// IMP, and worklist-directed prefetching at 16 threads, normalized to
// Minnow without prefetching.
func Fig17(f FigOptions) (*stats.Table, error) {
	threads := min(f.Threads, 16)
	t := &stats.Table{
		Title:   fmt.Sprintf("Fig 17: prefetching speedup at %d threads vs Minnow-no-prefetch", threads),
		Headers: []string{"workload", "stride", "imp", "worklist-directed"},
	}
	var jobs []Job
	for _, name := range f.benchNames() {
		o := f.base()
		o.Threads = threads
		o.Scheduler = "minnow"
		variant := func(hw string, wdp bool) Options {
			oo := o
			oo.HWPrefetcher = hw
			oo.Prefetch = wdp
			return oo
		}
		jobs = append(jobs,
			Job{Bench: name, Opts: o},
			Job{Bench: name, Opts: variant("stride", false)},
			Job{Bench: name, Opts: variant("imp", false)},
			Job{Bench: name, Opts: variant("", true)})
	}
	runs, err := f.runAll(jobs)
	if err != nil {
		return nil, err
	}
	for i, name := range f.benchNames() {
		base := runs[4*i]
		speedup := func(r *stats.Run) float64 {
			return float64(base.WallCycles) / float64(r.WallCycles)
		}
		t.AddRow(name, speedup(runs[4*i+1]), speedup(runs[4*i+2]), speedup(runs[4*i+3]))
	}
	return t, nil
}

// creditSet returns the Fig. 18-20 sweep points.
func (f FigOptions) creditSet() []int {
	if f.Quick {
		return []int{8, 32, 128}
	}
	return []int{1, 2, 4, 8, 16, 32, 64, 128, 256}
}

// creditSweep runs the credit sweep once per benchmark, returning runs
// keyed [bench][credit-index].
func creditSweep(f FigOptions) (map[string][]*stats.Run, error) {
	var jobs []Job
	for _, name := range f.benchNames() {
		for _, cr := range f.creditSet() {
			o := f.base()
			o.Scheduler = "minnow"
			o.Prefetch = true
			o.Credits = cr
			jobs = append(jobs, Job{Bench: name, Opts: o})
		}
	}
	runs, err := f.runAll(jobs)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]*stats.Run)
	k := 0
	for _, name := range f.benchNames() {
		for range f.creditSet() {
			out[name] = append(out[name], runs[k])
			k++
		}
	}
	return out, nil
}

// Fig18 regenerates L2 MPKI vs prefetch credits (paper Fig. 18).
func Fig18(f FigOptions) (*stats.Table, error) {
	runs, err := creditSweep(f)
	if err != nil {
		return nil, err
	}
	return creditTable(f, runs, "Fig 18: L2 demand MPKI vs prefetch credits ('off' = prefetch disabled)",
		func(r *stats.Run) float64 { return r.L2MPKI() }, true)
}

// Fig19 regenerates prefetching speedup vs credits (paper Fig. 19).
func Fig19(f FigOptions) (*stats.Table, error) {
	runs, err := creditSweep(f)
	if err != nil {
		return nil, err
	}
	// Normalize to prefetch-off.
	t := &stats.Table{
		Title:   "Fig 19: prefetching speedup vs credits (normalized to prefetch disabled)",
		Headers: creditHeaders(f, false),
	}
	var jobs []Job
	for _, name := range f.benchNames() {
		o := f.base()
		o.Scheduler = "minnow"
		jobs = append(jobs, Job{Bench: name, Opts: o})
	}
	offs, err := f.runAll(jobs)
	if err != nil {
		return nil, err
	}
	for i, name := range f.benchNames() {
		row := []any{name}
		for _, r := range runs[name] {
			row = append(row, float64(offs[i].WallCycles)/float64(r.WallCycles))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig20 regenerates prefetch efficiency vs credits plus the IMP reference
// point (paper Fig. 20).
func Fig20(f FigOptions) (*stats.Table, error) {
	runs, err := creditSweep(f)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   "Fig 20: prefetch efficiency (used-before-eviction / fills)",
		Headers: append(creditHeaders(f, false), "imp"),
	}
	var jobs []Job
	for _, name := range f.benchNames() {
		o := f.base()
		o.Scheduler = "minnow"
		o.HWPrefetcher = "imp"
		jobs = append(jobs, Job{Bench: name, Opts: o})
	}
	impRuns, err := f.runAll(jobs)
	if err != nil {
		return nil, err
	}
	for i, name := range f.benchNames() {
		row := []any{name}
		for _, r := range runs[name] {
			row = append(row, r.L2.Efficiency())
		}
		row = append(row, impRuns[i].L2.Efficiency())
		t.AddRow(row...)
	}
	return t, nil
}

func creditHeaders(f FigOptions, withOff bool) []string {
	h := []string{"workload"}
	if withOff {
		h = append(h, "off")
	}
	for _, c := range f.creditSet() {
		h = append(h, fmt.Sprintf("c%d", c))
	}
	return h
}

func creditTable(f FigOptions, runs map[string][]*stats.Run, title string, metric func(*stats.Run) float64, withOff bool) (*stats.Table, error) {
	t := &stats.Table{Title: title, Headers: creditHeaders(f, withOff)}
	var offs []*stats.Run
	if withOff {
		var jobs []Job
		for _, name := range f.benchNames() {
			o := f.base()
			o.Scheduler = "minnow"
			jobs = append(jobs, Job{Bench: name, Opts: o})
		}
		var err error
		offs, err = f.runAll(jobs)
		if err != nil {
			return nil, err
		}
	}
	for i, name := range f.benchNames() {
		row := []any{name}
		if withOff {
			row = append(row, metric(offs[i]))
		}
		for _, r := range runs[name] {
			row = append(row, metric(r))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig21 regenerates the memory-channel sensitivity study (paper Fig. 21):
// speedup relative to the 12-channel design, with and without prefetching.
func Fig21(f FigOptions) (*stats.Table, error) {
	channels := []int{1, 2, 4, 8, 12}
	if f.Quick {
		channels = []int{2, 12}
	}
	t := &stats.Table{Title: "Fig 21: speedup vs memory channels (normalized to 12 channels)"}
	t.Headers = []string{"workload", "prefetch"}
	for _, ch := range channels {
		t.Headers = append(t.Headers, fmt.Sprintf("ch%d", ch))
	}
	var jobs []Job
	for _, name := range f.benchNames() {
		for _, pf := range []bool{false, true} {
			for _, ch := range channels {
				o := f.base()
				o.Scheduler = "minnow"
				o.Prefetch = pf
				o.MemChannels = ch
				jobs = append(jobs, Job{Bench: name, Opts: o})
			}
		}
	}
	runs, err := f.runAll(jobs)
	if err != nil {
		return nil, err
	}
	k := 0
	for _, name := range f.benchNames() {
		for _, pf := range []bool{false, true} {
			var base int64
			walls := make([]int64, len(channels))
			for i, ch := range channels {
				walls[i] = runs[k].WallCycles
				if ch == 12 {
					base = runs[k].WallCycles
				}
				k++
			}
			row := []any{name, fmt.Sprintf("%v", pf)}
			for _, w := range walls {
				row = append(row, float64(base)/float64(w))
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}

// AreaTable regenerates the §5.4 area estimate.
func AreaTable() *stats.Table {
	cfg := core.DefaultConfig()
	rep := core.Area(cfg, 256*1024/64)
	t := &stats.Table{
		Title:   "§5.4 area estimate (published constants)",
		Headers: []string{"component", "value"},
	}
	t.AddRow("engine SRAM (B)", rep.SRAMBytes)
	t.AddRow("SRAM @28nm (mm^2)", rep.SRAM28nm)
	t.AddRow("SRAM @14nm (mm^2)", rep.SRAM14nm)
	t.AddRow("control unit @14nm (mm^2)", rep.ControlUnit14nm)
	t.AddRow("total @14nm (mm^2)", rep.Total14nm)
	t.AddRow("Skylake slice (mm^2)", rep.SkylakeSlice)
	t.AddRow("overhead (%)", rep.OverheadPercent)
	return t
}
