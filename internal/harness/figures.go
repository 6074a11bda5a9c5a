package harness

import (
	"encoding/json"
	"fmt"
	"strconv"

	"minnow/internal/core"
	"minnow/internal/cpu"
	"minnow/internal/graph"
	"minnow/internal/kernels"
	"minnow/internal/stats"
)

// FigOptions parameterizes the experiment suite. The zero value of every
// field selects its default.
type FigOptions struct {
	Threads int    // simulated cores (default 64, the paper's configuration)
	Scale   int    // input scale (default 2, so 64 threads stay fed; see EXPERIMENTS.md)
	Seed    uint64 // generator seed (default 42)
	Quick   bool   // trims sweeps for fast CI / benchmarks
	// Jobs bounds the worker pool that fans the figures' independent
	// configurations out across goroutines (0 = GOMAXPROCS, 1 = serial).
	// Each simulation stays single-goroutine and results are consumed in
	// submission order, so every figure is byte-identical for any Jobs.
	Jobs int
}

// Validate rejects nonsensical figure options with a descriptive error in
// Config.Validate's "minnow: <Field>: <reason>" form.
func (f FigOptions) Validate() error {
	switch {
	case f.Threads < 0:
		return fmt.Errorf("minnow: Threads: figure thread count %d is negative (0 selects the default of 64)", f.Threads)
	case f.Threads > 64:
		return fmt.Errorf("minnow: Threads: figure thread count %d exceeds 64, the coherence directory's sharer-mask width", f.Threads)
	case f.Scale < 0:
		return fmt.Errorf("minnow: Scale: figure scale %d is negative (0 selects the default of 2)", f.Scale)
	case f.Jobs < 0:
		return fmt.Errorf("minnow: Jobs: figure worker count %d is negative (0 means all CPUs)", f.Jobs)
	}
	return nil
}

// withDefaults resolves zero fields to the paper's 64-thread setup. Inputs
// run at scale 2 so 64 threads stay fed (scale 1 inputs starve high
// thread counts; see EXPERIMENTS.md).
func (f FigOptions) withDefaults() FigOptions {
	if f.Threads == 0 {
		f.Threads = 64
	}
	if f.Scale == 0 {
		f.Scale = 2
	}
	if f.Seed == 0 {
		f.Seed = 42
	}
	return f
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

// creditSet returns the Fig. 18-20 sweep points.
func (f FigOptions) creditSet() []int {
	if f.Quick {
		return []int{8, 32, 128}
	}
	return []int{1, 2, 4, 8, 16, 32, 64, 128, 256}
}

// minnowOpts is the Minnow configuration, optionally with
// worklist-directed prefetching.
func (f FigOptions) minnowOpts(prefetch bool) Options {
	o := f.base()
	o.Scheduler = "minnow"
	o.Prefetch = prefetch
	return o
}

// Figure is one table or figure of the evaluation, declared once: the
// simulations it needs and the table it fills from them.
type Figure struct {
	// Name is the figure's -only name, e.g. "fig2".
	Name string
	// Jobs lists the runs the figure needs, in the order Table consumes
	// them; nil when the figure simulates nothing.
	Jobs func(FigOptions) []Job
	// Table fills the figure from the runs of its Jobs, in order.
	Table func(FigOptions, []*stats.Run) (*stats.Table, error)
}

// FigureNames lists every figure in evaluation order.
func FigureNames() []string {
	names := make([]string, len(figures))
	for i, fig := range figures {
		names[i] = fig.Name
	}
	return names
}

// RenderFigures regenerates the named figures. It checks the options and
// every name before simulating anything, collects the Jobs of all the
// figures, drops exact repeats (same framework, benchmark and resolved
// Options, so a run two figures share is simulated once), runs the rest
// over one RunJobs pool of width f.Jobs, and fills each table in the
// order named. It also returns the distinct runs in submission order.
func RenderFigures(names []string, f FigOptions) ([]*stats.Table, []JobResult, error) {
	if err := f.Validate(); err != nil {
		return nil, nil, err
	}
	f = f.withDefaults()
	byName := make(map[string]Figure, len(figures))
	for _, fig := range figures {
		byName[fig.Name] = fig
	}
	figs := make([]Figure, len(names))
	for i, name := range names {
		fig, ok := byName[name]
		if !ok {
			return nil, nil, fmt.Errorf("harness: unknown figure %q (have %v)", name, FigureNames())
		}
		figs[i] = fig
	}

	var distinct []Job
	seen := map[string]int{}
	uses := make([][]int, len(figs)) // per figure: indices into distinct
	for i, fig := range figs {
		if fig.Jobs == nil {
			continue
		}
		for _, j := range fig.Jobs(f) {
			opts, err := json.Marshal(j.Opts.resolve())
			if err != nil {
				return nil, nil, fmt.Errorf("harness: figure %s: %w", fig.Name, err)
			}
			key := fmt.Sprintf("%d %s %s", j.Framework, j.Bench, opts)
			n, ok := seen[key]
			if !ok {
				n = len(distinct)
				seen[key] = n
				distinct = append(distinct, j)
			}
			uses[i] = append(uses[i], n)
		}
	}
	results := RunJobs(distinct, f.Jobs)
	for _, r := range results {
		if r.Err != nil {
			return nil, nil, r.Err
		}
	}

	tables := make([]*stats.Table, len(figs))
	for i, fig := range figs {
		runs := make([]*stats.Run, len(uses[i]))
		for k, n := range uses[i] {
			runs[k] = results[n].Run
		}
		tb, err := fig.Table(f, runs)
		if err != nil {
			return nil, nil, fmt.Errorf("harness: figure %s: %w", fig.Name, err)
		}
		tables[i] = tb
	}
	return tables, results, nil
}

// sweep is the figure shape of rows × one swept column: each row runs
// one configuration per column, and each cell is a metric of that run
// over the row's baseline run.
type sweep struct {
	title   string
	headers []string
	rows    []sweepRow
	cell    func(run, base *stats.Run) any
}

// sweepRow is one row of a sweep: its leading label cells, its baseline
// run (a zero Job when the metric needs none), and one run per column (a
// zero Job renders "-").
type sweepRow struct {
	label []any
	base  Job
	cols  []Job
}

// sweepFigure declares a figure whose shape build describes; build runs
// once for the Jobs and again for the Table.
func sweepFigure(name string, build func(FigOptions) sweep) Figure {
	return Figure{
		Name: name,
		Jobs: func(f FigOptions) []Job {
			var jobs []Job
			for _, r := range build(f).rows {
				for _, j := range append([]Job{r.base}, r.cols...) {
					if j.Bench != "" {
						jobs = append(jobs, j)
					}
				}
			}
			return jobs
		},
		Table: func(f FigOptions, runs []*stats.Run) (*stats.Table, error) {
			s := build(f)
			t := &stats.Table{Title: s.title, Headers: s.headers}
			for _, r := range s.rows {
				var base *stats.Run
				if r.base.Bench != "" {
					base, runs = runs[0], runs[1:]
				}
				row := append([]any(nil), r.label...)
				for _, j := range r.cols {
					if j.Bench == "" {
						row = append(row, "-")
						continue
					}
					row = append(row, s.cell(runs[0], base))
					runs = runs[1:]
				}
				t.AddRow(row...)
			}
			return t, nil
		},
	}
}

// speedup is a sweep cell: the baseline's wall cycles over the run's.
func speedup(run, base *stats.Run) any {
	return float64(base.WallCycles) / float64(run.WallCycles)
}

// perBench lists one job per benchmark of the suite under o.
func perBench(f FigOptions, o Options) []Job {
	var jobs []Job
	for _, name := range f.benchNames() {
		jobs = append(jobs, Job{Bench: name, Opts: o})
	}
	return jobs
}

// ratioOrTimeout returns base/x, or 0 for timed-out runs.
func ratioOrTimeout(base, x int64, timedOut bool) float64 {
	if timedOut || x == 0 {
		return 0
	}
	return float64(base) / float64(x)
}

// realMachine is the 10-thread configuration of Figs. 2 and 3, which are
// real-machine (Xeon) measurements in the paper: every framework enjoys
// the host's hardware prefetchers. A work budget bounds runaway
// scheduler configurations (Fig. 3's timeouts). graphMat is its 1-thread
// GraphMat baseline, without the prefetchers.
func realMachine(f FigOptions) (o, graphMat Options) {
	o = f.base()
	o.Threads = 10
	o.WorkBudget = int64(4_000_000) * int64(f.Scale)
	o.HWPrefetcher = "stride"
	graphMat = o
	graphMat.Threads = 1
	graphMat.HWPrefetcher = ""
	return o, graphMat
}

// fig2Benches and fig3Benches are the workloads of Figs. 2 and 3.
func fig2Benches(f FigOptions) []string {
	if f.Quick {
		return []string{"SSSP", "CC"}
	}
	return []string{"SSSP", "BFS", "G500", "CC", "PR"}
}

func fig3Benches(f FigOptions) []string {
	if f.Quick {
		return []string{"SSSP"}
	}
	return []string{"SSSP", "BFS", "CC", "PR"}
}

// sojournGaps are the sojourn figure's offered-load sweep points: mean
// Poisson inter-arrival gaps in cycles, densest (highest load) last so
// the latency knee sits at the bottom of the table.
func sojournGaps(f FigOptions) (gaps []int64, count int64) {
	if f.Quick {
		return []int64{2000, 600}, 96
	}
	return []int64{5000, 2000, 1000, 600, 400}, 256
}

// localQDepths and localQBenches span the local-queue ablation.
var (
	localQDepths  = []int{8, 16, 64, 256}
	localQBenches = []string{"SSSP", "CC"}
)

// figures is the evaluation, declared once, in paper order: Tables 1-3,
// Figs. 2-21 and the §5.4 area estimate, then the time-resolved,
// open-loop and profiler views, then the ablations of the design choices
// the paper makes but does not sweep (§6.2.1's task splitting and socket
// sharding, §5.1's structure sizes, §5.2's spill grouping, §4's shared
// engines).
var figures = []Figure{
	{
		// Table 1: the graph-input inventory, for our synthetic equivalents.
		Name: "table1",
		Table: func(f FigOptions, _ []*stats.Run) (*stats.Table, error) {
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
			return t, nil
		},
	},
	{
		// Table 2: the benchmark configuration, with measured
		// single-threaded serial-baseline cycles (the paper's "Cycles").
		Name: "table2",
		Jobs: func(f FigOptions) []Job {
			o := f.base()
			o.Threads = 1
			o.Serial = true
			return perBench(f, o)
		},
		Table: func(f FigOptions, runs []*stats.Run) (*stats.Table, error) {
			t := &stats.Table{
				Title:   "Table 2: benchmark configuration (serial-baseline cycles)",
				Headers: []string{"workload", "input", "serial-cycles", "tasks"},
			}
			for i, name := range f.benchNames() {
				spec, _ := kernels.SpecByName(name)
				t.AddRow(name, spec.PaperInput, runs[i].WallCycles, runs[i].WorkItems)
			}
			return t, nil
		},
	},
	{
		// Table 3: the simulated microarchitecture, paper spec beside the
		// scaled values this run actually uses.
		Name: "table3",
		Table: func(f FigOptions, _ []*stats.Run) (*stats.Table, error) {
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
			return t, nil
		},
	},
	{
		// Fig. 2: Galois vs GraphMat, speedup at 10 threads normalized to
		// 1-thread GraphMat. GMat* is the authors' per-bucket
		// delta-stepping retrofit (SSSP only).
		Name: "fig2",
		Jobs: func(f FigOptions) []Job {
			o, o1 := realMachine(f)
			fifo := o
			fifo.Scheduler = "fifo"
			fifo.SkipVerify = true // FIFO may time out on ordering-sensitive runs
			// GMat*'s per-bucket kernel launches are expensive, so its
			// tuned bucket interval is much larger than OBIM's (§3.1).
			gstar := o
			lg := uint(15)
			gstar.LgInterval = &lg
			var jobs []Job
			for _, name := range fig2Benches(f) {
				jobs = append(jobs,
					Job{Bench: name, Opts: o1, Framework: GraphMat},
					Job{Bench: name, Opts: o, Framework: GraphMat},
					Job{Bench: name, Opts: o}, Job{Bench: name, Opts: fifo})
				if name == "SSSP" {
					jobs = append(jobs, Job{Bench: name, Opts: gstar, Framework: GMatStar})
				}
			}
			return jobs
		},
		Table: func(f FigOptions, runs []*stats.Run) (*stats.Table, error) {
			t := &stats.Table{
				Title:   "Fig 2: speedup at 10 threads normalized to 1-thread GraphMat",
				Headers: []string{"workload", "gmat-10t", "galois-obim", "galois-fifo", "gmat*"},
			}
			for _, name := range fig2Benches(f) {
				gm1 := runs[0].WallCycles
				row := []any{name}
				for _, r := range runs[1:4] {
					row = append(row, ratioOrTimeout(gm1, r.WallCycles, r.TimedOut))
				}
				runs = runs[4:]
				gstar := "-"
				if name == "SSSP" {
					gstar = stats.FormatFloat(ratioOrTimeout(gm1, runs[0].WallCycles, runs[0].TimedOut))
					runs = runs[1:]
				}
				t.AddRow(append(row, gstar)...)
			}
			return t, nil
		},
	},
	{
		// Fig. 3: scheduler policies, runtime normalized to 1-thread
		// GraphMat at 10 threads.
		Name: "fig3",
		Jobs: func(f FigOptions) []Job {
			o, o1 := realMachine(f)
			o.SkipVerify = true
			var jobs []Job
			for _, name := range fig3Benches(f) {
				cell := func(sched string, lg int) Job {
					oo := o
					oo.Scheduler = sched
					if lg >= 0 {
						lgv := uint(lg)
						oo.LgInterval = &lgv
					}
					return Job{Bench: name, Opts: oo}
				}
				spec, _ := kernels.SpecByName(name)
				jobs = append(jobs, Job{Bench: name, Opts: o1, Framework: GraphMat},
					cell("fifo", -1), cell("lifo", -1),
					cell("obim", 2), cell("obim", int(spec.LgInterval)), cell("obim", 16),
					cell("strictpq", -1))
			}
			return jobs
		},
		Table: func(f FigOptions, runs []*stats.Run) (*stats.Table, error) {
			t := &stats.Table{
				Title:   "Fig 3: runtime normalized to GraphMat, 10 threads (lower is better; 'timeout' = exceeded work budget)",
				Headers: []string{"workload", "fifo", "lifo(carbon)", "obim-lg2", "obim-tuned", "obim-lg16", "strict-pq"},
			}
			cols := len(t.Headers) - 1
			for i, name := range fig3Benches(f) {
				gm := runs[i*(cols+1)]
				row := []any{name}
				for _, r := range runs[i*(cols+1)+1 : (i+1)*(cols+1)] {
					if r.TimedOut {
						row = append(row, "timeout")
					} else {
						row = append(row, stats.FormatFloat(float64(r.WallCycles)/float64(gm.WallCycles)))
					}
				}
				t.AddRow(row...)
			}
			return t, nil
		},
	},
	sweepFigure("fig4", func(f FigOptions) sweep {
		// Fig. 4: speedup vs ROB size, normalized to the 256-entry
		// configuration, for the realistic core and for ideal variants
		// with perfect branch prediction and no fences.
		robs := []int{64, 128, 256, 512}
		s := sweep{
			title:   "Fig 4: speedup vs ROB size, normalized to 256-entry ROB (realistic vs ideal)",
			headers: []string{"workload", "mode", "rob-64", "rob-128", "rob-256", "rob-512"},
			cell:    speedup,
		}
		benches := f.benchNames()
		if f.Quick {
			benches = []string{"SSSP", "PR"}
		}
		modes := []struct {
			name                string
			perfectBP, noFences bool
		}{{"realistic", false, false}, {"perfect-bp", true, false}, {"bp+nofence", true, true}}
		for _, name := range benches {
			for _, m := range modes {
				job := func(rob int) Job {
					cfg := cpu.ScaledROB(rob)
					cfg.PerfectBP = m.perfectBP
					cfg.NoFences = m.noFences
					o := f.base()
					o.CoreCfg = &cfg
					// The sweep changes the execution schedule, which moves
					// PR's leftover sub-epsilon residuals around; the
					// reference check is not meaningful here.
					o.SkipVerify = true
					return Job{Bench: name, Opts: o}
				}
				row := sweepRow{label: []any{name, m.name}, base: job(256)}
				for _, rob := range robs {
					row.cols = append(row.cols, job(rob))
				}
				s.rows = append(s.rows, row)
			}
		}
		return s
	}),
	{
		// Fig. 5: the Galois overhead breakdown, the fraction of core
		// cycles spent on useful work, worklist operations, and load/store
		// miss stalls.
		Name: "fig5",
		Jobs: func(f FigOptions) []Job { return perBench(f, f.base()) },
		Table: func(f FigOptions, runs []*stats.Run) (*stats.Table, error) {
			t := &stats.Table{
				Title:   fmt.Sprintf("Fig 5: cycle breakdown at %d threads (software baseline)", f.Threads),
				Headers: []string{"workload", "useful", "worklist", "load-miss", "store-miss"},
			}
			for i, name := range f.benchNames() {
				bd := runs[i].Breakdown()
				t.AddRow(name, bd[0], bd[1], bd[2], bd[3])
			}
			return t, nil
		},
	},
	{
		// Fig. 6: delinquent load density.
		Name: "fig6",
		Jobs: func(f FigOptions) []Job {
			o := f.base()
			o.Threads = min(f.Threads, 8) // density is thread-count-insensitive
			return perBench(f, o)
		},
		Table: func(f FigOptions, runs []*stats.Run) (*stats.Table, error) {
			t := &stats.Table{
				Title:   "Fig 6: delinquent load density (frequently-missing loads / all loads)",
				Headers: []string{"workload", "density"},
			}
			for i, name := range f.benchNames() {
				t.AddRow(name, runs[i].DelinquentDensity())
			}
			return t, nil
		},
	},
	{
		// Fig. 11: average cycles per enqueue/dequeue, software worklist vs
		// Minnow offload.
		Name: "fig11",
		Jobs: func(f FigOptions) []Job {
			return append(perBench(f, f.base()), perBench(f, f.minnowOpts(false))...)
		},
		Table: func(f FigOptions, runs []*stats.Run) (*stats.Table, error) {
			t := &stats.Table{
				Title:   fmt.Sprintf("Fig 11: average cycles per worklist operation at %d threads", f.Threads),
				Headers: []string{"workload", "galois-enq", "galois-deq", "minnow-enq", "minnow-deq"},
			}
			n := len(f.benchNames())
			for i, name := range f.benchNames() {
				sw, mn := runs[i], runs[n+i]
				t.AddRow(name, sw.AvgEnqCycles(), sw.AvgDeqCycles(), mn.AvgEnqCycles(), mn.AvgDeqCycles())
			}
			return t, nil
		},
	},
	sweepFigure("fig15", func(f FigOptions) sweep {
		// Fig. 15: scalability, speedup over the optimized serial baseline
		// from 1 to Threads threads, Galois vs Minnow (prefetching
		// disabled to isolate offload).
		s := sweep{
			title:   "Fig 15: speedup vs optimized serial baseline (Minnow without prefetching)",
			headers: []string{"workload", "sched"},
			cell:    speedup,
		}
		threadSet := []int{1, 2, 4, 8, 16, 32, 64}
		if f.Quick {
			threadSet = []int{1, 4, 8}
		}
		for _, th := range threadSet {
			s.headers = append(s.headers, fmt.Sprintf("t%d", th))
		}
		for _, name := range f.benchNames() {
			ser := f.base()
			ser.Threads = 1
			ser.Serial = true
			for _, sched := range []string{"obim", "minnow"} {
				row := sweepRow{label: []any{name, sched}, base: Job{Bench: name, Opts: ser}}
				for _, th := range threadSet {
					if th > f.Threads {
						row.cols = append(row.cols, Job{})
						continue
					}
					o := f.base()
					o.Threads = th
					o.Scheduler = sched
					row.cols = append(row.cols, Job{Bench: name, Opts: o})
				}
				s.rows = append(s.rows, row)
			}
		}
		return s
	}),
	{
		// Fig. 16: the headline result, overall Minnow speedup over the
		// optimized software baseline, with and without worklist-directed
		// prefetching, plus the averages (paper: 2.96x / 6.01x).
		Name: "fig16",
		Jobs: func(f FigOptions) []Job {
			var jobs []Job
			for _, name := range f.benchNames() {
				jobs = append(jobs,
					Job{Bench: name, Opts: f.base()},
					Job{Bench: name, Opts: f.minnowOpts(false)},
					Job{Bench: name, Opts: f.minnowOpts(true)})
			}
			return jobs
		},
		Table: func(f FigOptions, runs []*stats.Run) (*stats.Table, error) {
			t := &stats.Table{
				Title:   fmt.Sprintf("Fig 16: Minnow speedup over software baseline at %d threads", f.Threads),
				Headers: []string{"workload", "minnow", "minnow+prefetch"},
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
		},
	},
	sweepFigure("fig17", func(f FigOptions) sweep {
		// Fig. 17: stride, IMP, and worklist-directed prefetching at 16
		// threads, normalized to Minnow without prefetching.
		threads := min(f.Threads, 16)
		s := sweep{
			title:   fmt.Sprintf("Fig 17: prefetching speedup at %d threads vs Minnow-no-prefetch", threads),
			headers: []string{"workload", "stride", "imp", "worklist-directed"},
			cell:    speedup,
		}
		for _, name := range f.benchNames() {
			variant := func(hw string, wdp bool) Job {
				o := f.minnowOpts(wdp)
				o.Threads = threads
				o.HWPrefetcher = hw
				return Job{Bench: name, Opts: o}
			}
			s.rows = append(s.rows, sweepRow{
				label: []any{name},
				base:  variant("", false),
				cols:  []Job{variant("stride", false), variant("imp", false), variant("", true)},
			})
		}
		return s
	}),
	sweepFigure("fig18", func(f FigOptions) sweep {
		// Fig. 18: L2 MPKI vs prefetch credits, led by the prefetch-off
		// run.
		s := sweep{
			title:   "Fig 18: L2 demand MPKI vs prefetch credits ('off' = prefetch disabled)",
			headers: creditHeaders(f, "off"),
			cell:    func(r, _ *stats.Run) any { return r.L2MPKI() },
		}
		for _, name := range f.benchNames() {
			off := Job{Bench: name, Opts: f.minnowOpts(false)}
			s.rows = append(s.rows, sweepRow{label: []any{name}, cols: append([]Job{off}, creditJobs(f, name)...)})
		}
		return s
	}),
	sweepFigure("fig19", func(f FigOptions) sweep {
		// Fig. 19: prefetching speedup vs credits over prefetch off.
		s := sweep{
			title:   "Fig 19: prefetching speedup vs credits (normalized to prefetch disabled)",
			headers: creditHeaders(f),
			cell:    speedup,
		}
		for _, name := range f.benchNames() {
			off := Job{Bench: name, Opts: f.minnowOpts(false)}
			s.rows = append(s.rows, sweepRow{label: []any{name}, base: off, cols: creditJobs(f, name)})
		}
		return s
	}),
	sweepFigure("fig20", func(f FigOptions) sweep {
		// Fig. 20: prefetch efficiency vs credits, plus the IMP reference
		// point.
		s := sweep{
			title:   "Fig 20: prefetch efficiency (used-before-eviction / fills)",
			headers: append(creditHeaders(f), "imp"),
			cell:    func(r, _ *stats.Run) any { return r.L2.Efficiency() },
		}
		for _, name := range f.benchNames() {
			imp := f.minnowOpts(false)
			imp.HWPrefetcher = "imp"
			s.rows = append(s.rows, sweepRow{label: []any{name}, cols: append(creditJobs(f, name), Job{Bench: name, Opts: imp})})
		}
		return s
	}),
	sweepFigure("fig21", func(f FigOptions) sweep {
		// Fig. 21: memory-channel sensitivity, speedup relative to the
		// 12-channel design, with and without prefetching.
		channels := []int{1, 2, 4, 8, 12}
		if f.Quick {
			channels = []int{2, 12}
		}
		s := sweep{
			title:   "Fig 21: speedup vs memory channels (normalized to 12 channels)",
			headers: []string{"workload", "prefetch"},
			cell:    speedup,
		}
		for _, ch := range channels {
			s.headers = append(s.headers, fmt.Sprintf("ch%d", ch))
		}
		for _, name := range f.benchNames() {
			for _, pf := range []bool{false, true} {
				job := func(ch int) Job {
					o := f.minnowOpts(pf)
					o.MemChannels = ch
					return Job{Bench: name, Opts: o}
				}
				row := sweepRow{label: []any{name, fmt.Sprintf("%v", pf)}, base: job(12)}
				for _, ch := range channels {
					row.cols = append(row.cols, job(ch))
				}
				s.rows = append(s.rows, row)
			}
		}
		return s
	}),
	{
		// §5.4: the engine's area estimate from published constants.
		Name: "area",
		Table: func(FigOptions, []*stats.Run) (*stats.Table, error) {
			rep := core.Area(core.DefaultConfig(), 256*1024/64)
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
			return t, nil
		},
	},
	{
		// The worklist-occupancy-over-time view of the paper's Fig. 2:
		// tasks queued anywhere in the scheduling fabric, OBIM vs Minnow
		// with prefetching on SSSP.
		Name: "occupancy",
		Jobs: tsJobs,
		Table: func(_ FigOptions, runs []*stats.Run) (*stats.Table, error) {
			return tsTable("Fig 2-style: SSSP worklist occupancy over time (tasks queued)",
				"occupancy", runs[0].Intervals, runs[1].Intervals), nil
		},
	},
	{
		// The time-resolved L2 miss rate behind the paper's prefetching
		// results (Fig. 13): the miss rate collapses once prefetched lines
		// arrive ahead of the consuming tasks.
		Name: "mpki-interval",
		Jobs: tsJobs,
		Table: func(_ FigOptions, runs []*stats.Run) (*stats.Table, error) {
			return tsTable("Fig 13-style: SSSP interval demand L2 MPKI over time",
				"l2_mpki", runs[0].Intervals, runs[1].Intervals), nil
		},
	},
	{
		// The open-loop latency view the paper's closed-loop evaluation
		// cannot show: sojourn and queue-wait percentiles vs offered load
		// on SSSP under the full Minnow configuration. Sweeping the mean
		// Poisson inter-arrival gap from sparse to dense exposes the
		// latency knee, beyond which arrivals queue faster than the
		// machine retires them.
		Name: "sojourn",
		Jobs: func(f FigOptions) []Job {
			gaps, count := sojournGaps(f)
			var jobs []Job
			for _, gap := range gaps {
				o := f.minnowOpts(true)
				o.Arrivals = fmt.Sprintf("seed=1;poisson:gap=%d,count=%d", gap, count)
				jobs = append(jobs, Job{Bench: "SSSP", Opts: o})
			}
			return jobs
		},
		Table: func(f FigOptions, runs []*stats.Run) (*stats.Table, error) {
			gaps, _ := sojournGaps(f)
			t := &stats.Table{
				Title: "Open-loop SSSP latency vs offered load (Minnow+pf, Poisson arrivals)",
				Headers: []string{"mean gap (cyc)", "injected", "retired",
					"wait p50", "wait p95", "wait p99",
					"sojourn p50", "sojourn p95", "sojourn p99"},
			}
			for i, r := range runs {
				l := r.Latency
				if l == nil || len(l.Classes) == 0 {
					return nil, fmt.Errorf("run with gap=%d reported no latency stats", gaps[i])
				}
				c := l.Classes[0]
				t.AddRow(strconv.FormatInt(gaps[i], 10),
					strconv.FormatInt(c.Injected, 10), strconv.FormatInt(c.Retired, 10),
					strconv.FormatInt(c.WaitP50, 10), strconv.FormatInt(c.WaitP95, 10), strconv.FormatInt(c.WaitP99, 10),
					strconv.FormatInt(c.SojournP50, 10), strconv.FormatInt(c.SojournP95, 10), strconv.FormatInt(c.SojournP99, 10))
			}
			return t, nil
		},
	},
	{
		// Fig. 5 through the top-down profiler: each bar refined into
		// stall cause × serving level, for the software baseline and the
		// full Minnow+prefetch system. Values are fractions of total core
		// cycles, so each row sums to 1.
		Name: "cpistack",
		Jobs: func(f FigOptions) []Job {
			o := f.base()
			o.Profile = true
			om := f.minnowOpts(true)
			om.Profile = true
			var jobs []Job
			for _, name := range f.benchNames() {
				jobs = append(jobs, Job{Bench: name, Opts: o}, Job{Bench: name, Opts: om})
			}
			return jobs
		},
		Table: func(f FigOptions, runs []*stats.Run) (*stats.Table, error) {
			t := &stats.Table{
				Title: fmt.Sprintf("cpistack: refined cycle attribution at %d threads (fraction of core cycles)", f.Threads),
				Headers: []string{"workload", "sched", "useful", "branch", "load-near", "load-L3",
					"load-remote", "load-DRAM", "store", "fence", "enqueue", "dequeue", "backpressure"},
			}
			for i, name := range f.benchNames() {
				t.AddRow(cpiRow(name, "obim", runs[2*i].Profile)...)
				t.AddRow(cpiRow(name, "minnow+pf", runs[2*i+1].Profile)...)
			}
			return t, nil
		},
	},
	{
		// §6.2.1 task splitting on the hub-dominated G500 input (the
		// paper's Amdahl's-law argument: one 27%-of-edges node caps
		// unsplit speedup).
		Name: "ablation-splitting",
		Jobs: func(f FigOptions) []Job {
			var jobs []Job
			for _, thr := range splitThresholds {
				o := f.minnowOpts(true)
				o.SplitThreshold = thr
				jobs = append(jobs, Job{Bench: "G500", Opts: o})
			}
			return jobs
		},
		Table: func(_ FigOptions, runs []*stats.Run) (*stats.Table, error) {
			t := &stats.Table{
				Title:   "Ablation: task splitting (G500's giant hub, §6.2.1)",
				Headers: []string{"split-threshold", "wall-cycles", "speedup", "tasks"},
			}
			for i, r := range runs {
				label := fmt.Sprintf("%d", splitThresholds[i])
				if splitThresholds[i] == 0 {
					label = "off"
				}
				t.AddRow(label, r.WallCycles, float64(runs[0].WallCycles)/float64(r.WallCycles), r.WorkItems)
			}
			return t, nil
		},
	},
	sweepFigure("ablation-sockets", func(f FigOptions) sweep {
		// The §6.2.1 topology override: the global worklist sharded over
		// 1 vs 2 vs 8 socket groups.
		s := sweep{
			title:   "Ablation: worklist socket sharding (topology override, §6.2.1)",
			headers: []string{"workload", "sockets-1", "sockets-2", "sockets-8"},
			cell:    speedup,
		}
		for _, name := range []string{"SSSP", "CC"} {
			job := func(sockets int) Job {
				o := f.base()
				o.Sockets = sockets
				return Job{Bench: name, Opts: o}
			}
			s.rows = append(s.rows, sweepRow{label: []any{name}, base: job(1), cols: []Job{job(1), job(2), job(8)}})
		}
		return s
	}),
	{
		// The Minnow local queue depth (§5.1 sizes it at 64): shallow
		// queues force constant fills; deep queues hold stale priorities.
		Name: "ablation-localq",
		Jobs: func(f FigOptions) []Job {
			var jobs []Job
			for _, depth := range localQDepths {
				for _, name := range localQBenches {
					o := f.minnowOpts(true)
					o.EngineLocalQ = depth
					jobs = append(jobs, Job{Bench: name, Opts: o})
				}
			}
			return jobs
		},
		Table: func(_ FigOptions, runs []*stats.Run) (*stats.Table, error) {
			t := &stats.Table{
				Title:   "Ablation: Minnow local queue depth (§5.1 default 64)",
				Headers: []string{"depth", "sssp-cycles", "sssp-tasks", "cc-cycles", "cc-tasks"},
			}
			for i, depth := range localQDepths {
				row := []any{depth}
				for _, r := range runs[i*len(localQBenches) : (i+1)*len(localQBenches)] {
					row = append(row, r.WallCycles, r.WorkItems)
				}
				t.AddRow(row...)
			}
			return t, nil
		},
	},
	{
		// The engine's CAM load buffer (§5.1 default 32): it bounds the
		// engine's memory-level parallelism and therefore how far
		// prefetching can run ahead.
		Name: "ablation-loadbuf",
		Jobs: func(f FigOptions) []Job {
			var jobs []Job
			for _, n := range loadBufSizes {
				o := f.minnowOpts(true)
				o.EngineLoadBuf = n
				jobs = append(jobs, Job{Bench: "SSSP", Opts: o})
			}
			return jobs
		},
		Table: func(_ FigOptions, runs []*stats.Run) (*stats.Table, error) {
			t := &stats.Table{
				Title:   "Ablation: engine load buffer entries (§5.1 default 32)",
				Headers: []string{"entries", "sssp-cycles", "speedup-vs-4", "mpki"},
			}
			for i, r := range runs {
				t.AddRow(loadBufSizes[i], r.WallCycles, float64(runs[0].WallCycles)/float64(r.WallCycles), r.L2MPKI())
			}
			return t, nil
		},
	},
	{
		// §5.2's operation grouping ("several memory allocation and
		// deallocation tasks may be grouped together"): spill threadlets
		// carrying 1 to 64 tasks per lock acquisition.
		Name: "ablation-spill",
		Jobs: func(f FigOptions) []Job {
			var jobs []Job
			for _, n := range spillBatches {
				o := f.minnowOpts(false)
				o.EngineSpillBatch = n
				jobs = append(jobs, Job{Bench: "CC", Opts: o})
			}
			return jobs
		},
		Table: func(_ FigOptions, runs []*stats.Run) (*stats.Table, error) {
			t := &stats.Table{
				Title:   "Ablation: spill grouping (§5.2; tasks per spill threadlet)",
				Headers: []string{"batch", "cc-cycles", "speedup-vs-1"},
			}
			for i, r := range runs {
				t.AddRow(spillBatches[i], r.WallCycles, float64(runs[0].WallCycles)/float64(r.WallCycles))
			}
			return t, nil
		},
	},
	{
		// §4's unexplored variant: "cores may share a single Minnow engine
		// to reduce resources. This work focuses on cores with dedicated
		// Minnow engines." Sharing halves/quarters the engine area but
		// serializes the back-end across its cores.
		Name: "ablation-sharing",
		Jobs: func(f FigOptions) []Job {
			var jobs []Job
			for _, share := range engineShares {
				o := f.minnowOpts(true)
				o.EngineSharing = share
				jobs = append(jobs, Job{Bench: "SSSP", Opts: o})
			}
			return jobs
		},
		Table: func(_ FigOptions, runs []*stats.Run) (*stats.Table, error) {
			t := &stats.Table{
				Title:   "Ablation: cores per Minnow engine (§4: dedicated vs shared)",
				Headers: []string{"cores/engine", "sssp-cycles", "slowdown", "area-mm2/core@14nm"},
			}
			area := core.Area(core.DefaultConfig(), 256*1024/64).Total14nm
			for i, r := range runs {
				share := engineShares[i]
				t.AddRow(share, r.WallCycles, float64(r.WallCycles)/float64(runs[0].WallCycles), area/float64(share))
			}
			return t, nil
		},
	},
}

// The single-benchmark ablations' sweep points; the first is each
// table's baseline.
var (
	splitThresholds = []int32{0, 16384, 2048, 512}
	loadBufSizes    = []int{4, 8, 16, 32, 64}
	spillBatches    = []int{1, 4, 16, 64}
	engineShares    = []int{1, 2, 4}
)

// creditJobs is the credit sweep of Figs. 18-20: Minnow with
// prefetching at each credit count.
func creditJobs(f FigOptions, bench string) []Job {
	var jobs []Job
	for _, c := range f.creditSet() {
		o := f.minnowOpts(true)
		o.Credits = c
		jobs = append(jobs, Job{Bench: bench, Opts: o})
	}
	return jobs
}

// creditHeaders heads a credit-sweep table: the workload, any lead
// columns, then one column per credit count.
func creditHeaders(f FigOptions, lead ...string) []string {
	h := append([]string{"workload"}, lead...)
	for _, c := range f.creditSet() {
		h = append(h, fmt.Sprintf("c%d", c))
	}
	return h
}
