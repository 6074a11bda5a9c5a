package harness

import (
	"encoding/json"
	"fmt"
	"reflect"
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
	case f.Scale > maxScale:
		return fmt.Errorf("minnow: Scale: figure scale %d exceeds %d, the largest input scale a run may build", f.Scale, maxScale)
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

// Figure is one table or figure of the evaluation, declared once by its
// build function.
type Figure struct {
	// Name is the figure's -only name, e.g. "fig2".
	Name string
	// build declares the figure into b: its table, each run a row reads,
	// asked for where the row reads it, and the rows, which read their
	// runs once RenderFigures has simulated them.
	build func(f FigOptions, b *builder)
}

// builder collects one figure's declaration.
type builder struct {
	t     *stats.Table
	jobs  []Job
	runs  []*stats.Run // each job's handle, filled after simulation
	steps []func(t *stats.Table) error
}

// table sets the figure's title and headers.
func (b *builder) table(title string, headers ...string) {
	b.t = &stats.Table{Title: title, Headers: headers}
}

// job asks for j's run. The handle it returns is empty until
// RenderFigures fills it, which it does before any row step runs.
func (b *builder) job(j Job) *stats.Run {
	r := new(stats.Run)
	b.jobs = append(b.jobs, j)
	b.runs = append(b.runs, r)
	return r
}

// run asks for bench's Galois run under o.
func (b *builder) run(bench string, o Options) *stats.Run {
	return b.job(Job{Bench: bench, Opts: o})
}

// fill adds a step that adds rows once the runs are filled. Steps run in
// the order they were added, as do row's and add's rows.
func (b *builder) fill(step func(t *stats.Table) error) {
	b.steps = append(b.steps, step)
}

// row adds a row whose cells are read once the runs are filled.
func (b *builder) row(cells func() []any) {
	b.fill(func(t *stats.Table) error {
		t.AddRow(cells()...)
		return nil
	})
}

// add adds a row whose cells need no run.
func (b *builder) add(cells ...any) {
	b.row(func() []any { return cells })
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
// every name before simulating anything, then calls each figure's build
// once and collects the runs they ask for in request order. Requests with
// the same repeatKey share one simulation (shareRun merges their
// switches); the distinct runs go over one RunJobs pool of width f.Jobs,
// and then each figure's rows read them, in the order named. It also
// returns the distinct runs in request order.
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

	builds := make([]*builder, len(figs))
	var distinct []Job
	var handles [][]*stats.Run // per distinct run: the handles it fills
	seen := map[string]int{}
	for i, fig := range figs {
		b := &builder{}
		fig.build(f, b)
		builds[i] = b
		for k, j := range b.jobs {
			key, err := repeatKey(j)
			if err != nil {
				return nil, nil, fmt.Errorf("harness: figure %s: %w", fig.Name, err)
			}
			n, ok := seen[key]
			if ok {
				distinct[n].Opts = shareRun(distinct[n].Opts, j.Opts)
			} else {
				n = len(distinct)
				seen[key] = n
				distinct = append(distinct, j)
				handles = append(handles, nil)
			}
			handles[n] = append(handles[n], b.runs[k])
		}
	}
	results := RunJobs(distinct, f.Jobs)
	for n, r := range results {
		if r.Err != nil {
			return nil, nil, r.Err
		}
		for _, h := range handles[n] {
			*h = *r.Run
		}
	}

	tables := make([]*stats.Table, len(figs))
	for i, b := range builds {
		for _, step := range b.steps {
			if err := step(b.t); err != nil {
				return nil, nil, fmt.Errorf("harness: figure %s: %w", figs[i].Name, err)
			}
		}
		tables[i] = b.t
	}
	return tables, results, nil
}

// keyHost and keySwitches index the Config fields a repeat key leaves
// out, found once from the knob tags minnowd's cache key follows: every
// knob:"host" field, and every boolean knob:"observe" switch (Profile,
// Timeline). TestTaggedKnobsInert proves neither changes a RunSummary.
// The other observe knobs stay in the key: a run samples at one
// MetricsEvery and keeps one TraceEvents tail.
var keyHost, keySwitches = func() (host, switches []int) {
	t := reflect.TypeOf(Config{})
	for i := 0; i < t.NumField(); i++ {
		switch field := t.Field(i); {
		case field.Tag.Get("knob") == "host":
			host = append(host, i)
		case field.Tag.Get("knob") == "observe" && field.Type.Kind() == reflect.Bool:
			switches = append(switches, i)
		}
	}
	return host, switches
}()

// repeatKey keys a job by what can change its run: the framework, the
// benchmark and the resolved Options less the keyHost and keySwitches
// fields. Resolving first makes an explicit default and an omitted
// field the same run.
func repeatKey(j Job) (string, error) {
	spec, err := kernels.SpecByName(j.Bench)
	if err != nil {
		return "", err
	}
	o := j.Opts.resolve(spec)
	c := reflect.ValueOf(&o.Config).Elem()
	for _, fields := range [][]int{keyHost, keySwitches} {
		for _, i := range fields {
			c.Field(i).SetZero()
		}
	}
	opts, err := json.Marshal(o)
	return fmt.Sprintf("%d %s %s", j.Framework, j.Bench, opts), err
}

// shareRun folds a repeat j into the options of the run it shares: the
// run turns on every boolean observe switch any of its jobs asks for,
// and skips verification only when all of them do.
func shareRun(o, j Options) Options {
	c, jc := reflect.ValueOf(&o.Config).Elem(), reflect.ValueOf(j.Config)
	for _, i := range keySwitches {
		if jc.Field(i).Bool() {
			c.Field(i).SetBool(true)
		}
	}
	o.SkipVerify = o.SkipVerify && j.SkipVerify
	return o
}

// cells is a row of label followed by one cell per run, "-" for a nil
// run (a column the configuration leaves out).
func cells(label []any, runs []*stats.Run, cell func(r *stats.Run) any) []any {
	for _, r := range runs {
		if r == nil {
			label = append(label, "-")
		} else {
			label = append(label, cell(r))
		}
	}
	return label
}

// speedupOver is a cell: base's wall cycles over the run's.
func speedupOver(base *stats.Run) func(r *stats.Run) any {
	return func(r *stats.Run) any { return float64(base.WallCycles) / float64(r.WallCycles) }
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
		build: func(f FigOptions, b *builder) {
			b.table("Table 1: evaluated graph inputs (synthetic equivalents)",
				"name", "stands-for", "nodes", "edges", "est.diam", "largest-node", "size-MB")
			for _, spec := range kernels.Suite() {
				g := spec.Graph(f.Scale, f.Seed, graph.NewAddrSpace())
				_, maxDeg := g.MaxDegreeNode()
				b.add(g.Name, spec.PaperInput, g.N, g.NumEdges(), g.EstimateDiameter(0), maxDeg,
					float64(g.SizeBytes())/1e6)
			}
		},
	},
	{
		// Table 2: the benchmark configuration, with measured
		// single-threaded serial-baseline cycles (the paper's "Cycles").
		Name: "table2",
		build: func(f FigOptions, b *builder) {
			b.table("Table 2: benchmark configuration (serial-baseline cycles)",
				"workload", "input", "serial-cycles", "tasks")
			o := f.base()
			o.Threads = 1
			o.Serial = true
			for _, name := range f.benchNames() {
				spec, _ := kernels.SpecByName(name)
				r := b.run(name, o)
				b.row(func() []any { return []any{name, spec.PaperInput, r.WallCycles, r.WorkItems} })
			}
		},
	},
	{
		// Table 3: the simulated microarchitecture, paper spec beside the
		// scaled values this run actually uses.
		Name: "table3",
		build: func(f FigOptions, b *builder) {
			o := f.base()
			o.Config = o.WithDefaults()
			m := buildMem(o).Config()
			c := cpu.DefaultConfig()
			e := core.DefaultConfig()
			b.table("Table 3: microarchitecture configuration (paper spec -> scaled sim values)",
				"component", "paper", "simulated")
			b.add("cores", "64 Skylake-like, 2.5GHz", fmt.Sprintf("%d interval-model cores", o.Threads))
			b.add("branch predictor", "64Kb 5-table TAGE", "64Kb 5-table TAGE")
			b.add("reservation station", "97 entries", fmt.Sprintf("%d entries", c.RS))
			b.add("load/store queue", "72 / 56", fmt.Sprintf("%d / %d", c.LoadQueue, c.StoreQueue))
			b.add("reorder buffer", "224", fmt.Sprintf("%d", c.ROB))
			b.add("L1D", "32KB 8-way 4cyc", fmt.Sprintf("%dKB %d-way %dcyc", m.L1Lines*64/1024, m.L1Assoc, m.L1Latency))
			b.add("L2", "256KB 8-way 7cyc", fmt.Sprintf("%dKB %d-way %dcyc", m.L2Lines*64/1024, m.L2Assoc, m.L2Latency))
			b.add("L3", "2MB/core 16-way 27cyc", fmt.Sprintf("%dKB/core %d-way %dcyc", m.L3BankLines*64/1024, m.L3Assoc, m.L3Latency))
			b.add("NoC", "8x8 mesh, 3cyc/hop", fmt.Sprintf("%dx%d mesh, %dcyc/hop", m.MeshW, m.MeshH, m.HopCycles))
			b.add("main memory", "12-ch DDR4-2400", fmt.Sprintf("%d-ch, %dcyc, %dcyc/line", m.DRAM.Channels, m.DRAM.LatencyCycles, m.DRAM.ServiceCycles))
			b.add("minnow localQ", "64 entries, 10cyc", fmt.Sprintf("%d entries, %dcyc", e.LocalQ, e.LocalQLatency))
			b.add("minnow loadQ", "32 entries, 4cyc wakeup", fmt.Sprintf("%d entries, %dcyc wakeup", e.LoadBuf, e.LoadBufWake))
		},
	},
	{
		// Fig. 2: Galois vs GraphMat, speedup at 10 threads normalized to
		// 1-thread GraphMat. GMat* is the authors' per-bucket
		// delta-stepping retrofit (SSSP only).
		Name: "fig2",
		build: func(f FigOptions, b *builder) {
			b.table("Fig 2: speedup at 10 threads normalized to 1-thread GraphMat",
				"workload", "gmat-10t", "galois-obim", "galois-fifo", "gmat*")
			o, o1 := realMachine(f)
			fifo := o
			fifo.Scheduler = "fifo"
			fifo.SkipVerify = true // FIFO may time out on ordering-sensitive runs
			// GMat*'s per-bucket kernel launches are expensive, so its
			// tuned bucket interval is much larger than OBIM's (§3.1).
			gstar := o
			lg := uint(15)
			gstar.LgInterval = &lg
			for _, name := range fig2Benches(f) {
				gm1 := b.job(Job{Bench: name, Opts: o1, Framework: GraphMat})
				cols := []*stats.Run{b.job(Job{Bench: name, Opts: o, Framework: GraphMat}), b.run(name, o), b.run(name, fifo), nil}
				if name == "SSSP" {
					cols[3] = b.job(Job{Bench: name, Opts: gstar, Framework: GMatStar})
				}
				b.row(func() []any {
					return cells([]any{name}, cols, func(r *stats.Run) any {
						return ratioOrTimeout(gm1.WallCycles, r.WallCycles, r.TimedOut)
					})
				})
			}
		},
	},
	{
		// Fig. 3: scheduler policies, runtime normalized to 1-thread
		// GraphMat at 10 threads.
		Name: "fig3",
		build: func(f FigOptions, b *builder) {
			b.table("Fig 3: runtime normalized to GraphMat, 10 threads (lower is better; 'timeout' = exceeded work budget)",
				"workload", "fifo", "lifo(carbon)", "obim-lg2", "obim-tuned", "obim-lg16", "strict-pq")
			o, o1 := realMachine(f)
			o.SkipVerify = true
			for _, name := range fig3Benches(f) {
				run := func(sched string, lg int) *stats.Run {
					oo := o
					oo.Scheduler = sched
					if lg >= 0 {
						lgv := uint(lg)
						oo.LgInterval = &lgv
					}
					return b.run(name, oo)
				}
				spec, _ := kernels.SpecByName(name)
				gm := b.job(Job{Bench: name, Opts: o1, Framework: GraphMat})
				cols := []*stats.Run{run("fifo", -1), run("lifo", -1),
					run("obim", 2), run("obim", int(spec.LgInterval)), run("obim", 16),
					run("strictpq", -1)}
				b.row(func() []any {
					return cells([]any{name}, cols, func(r *stats.Run) any {
						if r.TimedOut {
							return "timeout"
						}
						return float64(r.WallCycles) / float64(gm.WallCycles)
					})
				})
			}
		},
	},
	{
		// Fig. 4: speedup vs ROB size, normalized to the 256-entry
		// configuration, for the realistic core and for ideal variants
		// with perfect branch prediction and no fences.
		Name: "fig4",
		build: func(f FigOptions, b *builder) {
			b.table("Fig 4: speedup vs ROB size, normalized to 256-entry ROB (realistic vs ideal)",
				"workload", "mode", "rob-64", "rob-128", "rob-256", "rob-512")
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
					run := func(rob int) *stats.Run {
						cfg := cpu.ScaledROB(rob)
						cfg.PerfectBP = m.perfectBP
						cfg.NoFences = m.noFences
						o := f.base()
						o.CoreCfg = &cfg
						// The sweep changes the execution schedule, which moves
						// PR's leftover sub-epsilon residuals around; the
						// reference check is not meaningful here.
						o.SkipVerify = true
						return b.run(name, o)
					}
					base := run(256)
					var cols []*stats.Run
					for _, rob := range []int{64, 128, 256, 512} {
						cols = append(cols, run(rob))
					}
					b.row(func() []any { return cells([]any{name, m.name}, cols, speedupOver(base)) })
				}
			}
		},
	},
	{
		// Fig. 5: the Galois overhead breakdown, the fraction of core
		// cycles spent on useful work, worklist operations, and load/store
		// miss stalls.
		Name: "fig5",
		build: func(f FigOptions, b *builder) {
			b.table(fmt.Sprintf("Fig 5: cycle breakdown at %d threads (software baseline)", f.Threads),
				"workload", "useful", "worklist", "load-miss", "store-miss")
			for _, name := range f.benchNames() {
				r := b.run(name, f.base())
				b.row(func() []any {
					bd := r.Breakdown()
					return []any{name, bd[0], bd[1], bd[2], bd[3]}
				})
			}
		},
	},
	{
		// Fig. 6: delinquent load density.
		Name: "fig6",
		build: func(f FigOptions, b *builder) {
			b.table("Fig 6: delinquent load density (frequently-missing loads / all loads)", "workload", "density")
			o := f.base()
			o.Threads = min(f.Threads, 8) // density is thread-count-insensitive
			for _, name := range f.benchNames() {
				r := b.run(name, o)
				b.row(func() []any { return []any{name, r.DelinquentDensity()} })
			}
		},
	},
	{
		// Fig. 11: average cycles per enqueue/dequeue, software worklist vs
		// Minnow offload.
		Name: "fig11",
		build: func(f FigOptions, b *builder) {
			b.table(fmt.Sprintf("Fig 11: average cycles per worklist operation at %d threads", f.Threads),
				"workload", "galois-enq", "galois-deq", "minnow-enq", "minnow-deq")
			names := f.benchNames()
			sw := make([]*stats.Run, len(names))
			for i, name := range names {
				sw[i] = b.run(name, f.base())
			}
			for i, name := range names {
				mn := b.run(name, f.minnowOpts(false))
				b.row(func() []any {
					return []any{name, sw[i].AvgEnqCycles(), sw[i].AvgDeqCycles(), mn.AvgEnqCycles(), mn.AvgDeqCycles()}
				})
			}
		},
	},
	{
		// Fig. 15: scalability, speedup over the optimized serial baseline
		// from 1 to Threads threads, Galois vs Minnow (prefetching
		// disabled to isolate offload).
		Name: "fig15",
		build: func(f FigOptions, b *builder) {
			threadSet := []int{1, 2, 4, 8, 16, 32, 64}
			if f.Quick {
				threadSet = []int{1, 4, 8}
			}
			headers := []string{"workload", "sched"}
			for _, th := range threadSet {
				headers = append(headers, fmt.Sprintf("t%d", th))
			}
			b.table("Fig 15: speedup vs optimized serial baseline (Minnow without prefetching)", headers...)
			for _, name := range f.benchNames() {
				ser := f.base()
				ser.Threads = 1
				ser.Serial = true
				for _, sched := range []string{"obim", "minnow"} {
					base := b.run(name, ser)
					cols := make([]*stats.Run, len(threadSet))
					for k, th := range threadSet {
						if th <= f.Threads {
							o := f.base()
							o.Threads = th
							o.Scheduler = sched
							cols[k] = b.run(name, o)
						}
					}
					b.row(func() []any { return cells([]any{name, sched}, cols, speedupOver(base)) })
				}
			}
		},
	},
	{
		// Fig. 16: the headline result, overall Minnow speedup over the
		// optimized software baseline, with and without worklist-directed
		// prefetching, plus the averages (paper: 2.96x / 6.01x).
		Name: "fig16",
		build: func(f FigOptions, b *builder) {
			b.table(fmt.Sprintf("Fig 16: Minnow speedup over software baseline at %d threads", f.Threads),
				"workload", "minnow", "minnow+prefetch")
			var noPF, withPF []float64
			for _, name := range f.benchNames() {
				base, m0, m1 := b.run(name, f.base()), b.run(name, f.minnowOpts(false)), b.run(name, f.minnowOpts(true))
				b.row(func() []any {
					s0 := float64(base.WallCycles) / float64(m0.WallCycles)
					s1 := float64(base.WallCycles) / float64(m1.WallCycles)
					noPF = append(noPF, s0)
					withPF = append(withPF, s1)
					return []any{name, s0, s1}
				})
			}
			b.row(func() []any { return []any{"geomean", stats.GeoMean(noPF), stats.GeoMean(withPF)} })
		},
	},
	{
		// Fig. 17: stride, IMP, and worklist-directed prefetching at 16
		// threads, normalized to Minnow without prefetching.
		Name: "fig17",
		build: func(f FigOptions, b *builder) {
			threads := min(f.Threads, 16)
			b.table(fmt.Sprintf("Fig 17: prefetching speedup at %d threads vs Minnow-no-prefetch", threads),
				"workload", "stride", "imp", "worklist-directed")
			for _, name := range f.benchNames() {
				run := func(hw string, wdp bool) *stats.Run {
					o := f.minnowOpts(wdp)
					o.Threads = threads
					o.HWPrefetcher = hw
					return b.run(name, o)
				}
				base := run("", false)
				cols := []*stats.Run{run("stride", false), run("imp", false), run("", true)}
				b.row(func() []any { return cells([]any{name}, cols, speedupOver(base)) })
			}
		},
	},
	{
		// Fig. 18: L2 MPKI vs prefetch credits, led by the prefetch-off
		// run.
		Name: "fig18",
		build: func(f FigOptions, b *builder) {
			b.table("Fig 18: L2 demand MPKI vs prefetch credits ('off' = prefetch disabled)", creditHeaders(f, "off")...)
			for _, name := range f.benchNames() {
				off := b.run(name, f.minnowOpts(false))
				cols := append([]*stats.Run{off}, creditRuns(f, b, name)...)
				b.row(func() []any { return cells([]any{name}, cols, func(r *stats.Run) any { return r.L2MPKI() }) })
			}
		},
	},
	{
		// Fig. 19: prefetching speedup vs credits over prefetch off.
		Name: "fig19",
		build: func(f FigOptions, b *builder) {
			b.table("Fig 19: prefetching speedup vs credits (normalized to prefetch disabled)", creditHeaders(f)...)
			for _, name := range f.benchNames() {
				off := b.run(name, f.minnowOpts(false))
				cols := creditRuns(f, b, name)
				b.row(func() []any { return cells([]any{name}, cols, speedupOver(off)) })
			}
		},
	},
	{
		// Fig. 20: prefetch efficiency vs credits, plus the IMP reference
		// point.
		Name: "fig20",
		build: func(f FigOptions, b *builder) {
			b.table("Fig 20: prefetch efficiency (used-before-eviction / fills)", append(creditHeaders(f), "imp")...)
			for _, name := range f.benchNames() {
				imp := f.minnowOpts(false)
				imp.HWPrefetcher = "imp"
				cols := append(creditRuns(f, b, name), b.run(name, imp))
				b.row(func() []any { return cells([]any{name}, cols, func(r *stats.Run) any { return r.L2.Efficiency() }) })
			}
		},
	},
	{
		// Fig. 21: memory-channel sensitivity, speedup relative to the
		// 12-channel design, with and without prefetching.
		Name: "fig21",
		build: func(f FigOptions, b *builder) {
			channels := []int{1, 2, 4, 8, 12}
			if f.Quick {
				channels = []int{2, 12}
			}
			headers := []string{"workload", "prefetch"}
			for _, ch := range channels {
				headers = append(headers, fmt.Sprintf("ch%d", ch))
			}
			b.table("Fig 21: speedup vs memory channels (normalized to 12 channels)", headers...)
			for _, name := range f.benchNames() {
				for _, pf := range []bool{false, true} {
					run := func(ch int) *stats.Run {
						o := f.minnowOpts(pf)
						o.MemChannels = ch
						return b.run(name, o)
					}
					base := run(12)
					var cols []*stats.Run
					for _, ch := range channels {
						cols = append(cols, run(ch))
					}
					b.row(func() []any { return cells([]any{name, fmt.Sprintf("%v", pf)}, cols, speedupOver(base)) })
				}
			}
		},
	},
	{
		// §5.4: the engine's area estimate from published constants.
		Name: "area",
		build: func(_ FigOptions, b *builder) {
			rep := core.Area(core.DefaultConfig(), 256*1024/64)
			b.table("§5.4 area estimate (published constants)", "component", "value")
			b.add("engine SRAM (B)", rep.SRAMBytes)
			b.add("SRAM @28nm (mm^2)", rep.SRAM28nm)
			b.add("SRAM @14nm (mm^2)", rep.SRAM14nm)
			b.add("control unit @14nm (mm^2)", rep.ControlUnit14nm)
			b.add("total @14nm (mm^2)", rep.Total14nm)
			b.add("Skylake slice (mm^2)", rep.SkylakeSlice)
			b.add("overhead (%)", rep.OverheadPercent)
		},
	},
	{
		// The worklist-occupancy-over-time view of the paper's Fig. 2:
		// tasks queued anywhere in the scheduling fabric, OBIM vs Minnow
		// with prefetching on SSSP.
		Name: "occupancy",
		build: func(f FigOptions, b *builder) {
			tsFigure(f, b, "Fig 2-style: SSSP worklist occupancy over time (tasks queued)", "occupancy")
		},
	},
	{
		// The time-resolved L2 miss rate behind the paper's prefetching
		// results (Fig. 13): the miss rate collapses once prefetched lines
		// arrive ahead of the consuming tasks.
		Name: "mpki-interval",
		build: func(f FigOptions, b *builder) {
			tsFigure(f, b, "Fig 13-style: SSSP interval demand L2 MPKI over time", "l2_mpki")
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
		build: func(f FigOptions, b *builder) {
			b.table("Open-loop SSSP latency vs offered load (Minnow+pf, Poisson arrivals)",
				"mean gap (cyc)", "injected", "retired",
				"wait p50", "wait p95", "wait p99",
				"sojourn p50", "sojourn p95", "sojourn p99")
			gaps, count := sojournGaps(f)
			for _, gap := range gaps {
				o := f.minnowOpts(true)
				o.Arrivals = fmt.Sprintf("seed=1;poisson:gap=%d,count=%d", gap, count)
				r := b.run("SSSP", o)
				b.fill(func(t *stats.Table) error {
					l := r.Latency
					if l == nil || len(l.Classes) == 0 {
						return fmt.Errorf("run with gap=%d reported no latency stats", gap)
					}
					c := l.Classes[0]
					t.AddRow(strconv.FormatInt(gap, 10),
						strconv.FormatInt(c.Injected, 10), strconv.FormatInt(c.Retired, 10),
						strconv.FormatInt(c.WaitP50, 10), strconv.FormatInt(c.WaitP95, 10), strconv.FormatInt(c.WaitP99, 10),
						strconv.FormatInt(c.SojournP50, 10), strconv.FormatInt(c.SojournP95, 10), strconv.FormatInt(c.SojournP99, 10))
					return nil
				})
			}
		},
	},
	{
		// Fig. 5 through the top-down profiler: each bar refined into
		// stall cause × serving level, for the software baseline and the
		// full Minnow+prefetch system. Values are fractions of total core
		// cycles, so each row sums to 1.
		Name: "cpistack",
		build: func(f FigOptions, b *builder) {
			b.table(fmt.Sprintf("cpistack: refined cycle attribution at %d threads (fraction of core cycles)", f.Threads),
				"workload", "sched", "useful", "branch", "load-near", "load-L3",
				"load-remote", "load-DRAM", "store", "fence", "enqueue", "dequeue", "backpressure")
			o := f.base()
			o.Profile = true
			om := f.minnowOpts(true)
			om.Profile = true
			for _, name := range f.benchNames() {
				sw, mn := b.run(name, o), b.run(name, om)
				b.row(func() []any { return cpiRow(name, "obim", sw.Profile) })
				b.row(func() []any { return cpiRow(name, "minnow+pf", mn.Profile) })
			}
		},
	},
	{
		// §6.2.1 task splitting on the hub-dominated G500 input (the
		// paper's Amdahl's-law argument: one 27%-of-edges node caps
		// unsplit speedup).
		Name: "ablation-splitting",
		build: func(f FigOptions, b *builder) {
			b.table("Ablation: task splitting (G500's giant hub, §6.2.1)",
				"split-threshold", "wall-cycles", "speedup", "tasks")
			run := func(thr int32) *stats.Run {
				o := f.minnowOpts(true)
				o.SplitThreshold = thr
				return b.run("G500", o)
			}
			off := run(0)
			for _, thr := range []int32{0, 16384, 2048, 512} {
				r := run(thr)
				label := fmt.Sprintf("%d", thr)
				if thr == 0 {
					label = "off"
				}
				b.row(func() []any {
					return []any{label, r.WallCycles, float64(off.WallCycles) / float64(r.WallCycles), r.WorkItems}
				})
			}
		},
	},
	{
		// The §6.2.1 topology override: the global worklist sharded over
		// 1 vs 2 vs 8 socket groups.
		Name: "ablation-sockets",
		build: func(f FigOptions, b *builder) {
			b.table("Ablation: worklist socket sharding (topology override, §6.2.1)",
				"workload", "sockets-1", "sockets-2", "sockets-8")
			for _, name := range []string{"SSSP", "CC"} {
				run := func(sockets int) *stats.Run {
					o := f.base()
					o.Sockets = sockets
					return b.run(name, o)
				}
				base := run(1)
				cols := []*stats.Run{run(1), run(2), run(8)}
				b.row(func() []any { return cells([]any{name}, cols, speedupOver(base)) })
			}
		},
	},
	{
		// The Minnow local queue depth (§5.1 sizes it at 64): shallow
		// queues force constant fills; deep queues hold stale priorities.
		Name: "ablation-localq",
		build: func(f FigOptions, b *builder) {
			b.table("Ablation: Minnow local queue depth (§5.1 default 64)",
				"depth", "sssp-cycles", "sssp-tasks", "cc-cycles", "cc-tasks")
			for _, depth := range []int{8, 16, 64, 256} {
				var cols []*stats.Run
				for _, name := range []string{"SSSP", "CC"} {
					o := f.minnowOpts(true)
					o.EngineLocalQ = depth
					cols = append(cols, b.run(name, o))
				}
				b.row(func() []any {
					row := []any{depth}
					for _, r := range cols {
						row = append(row, r.WallCycles, r.WorkItems)
					}
					return row
				})
			}
		},
	},
	{
		// The engine's CAM load buffer (§5.1 default 32): it bounds the
		// engine's memory-level parallelism and therefore how far
		// prefetching can run ahead.
		Name: "ablation-loadbuf",
		build: func(f FigOptions, b *builder) {
			b.table("Ablation: engine load buffer entries (§5.1 default 32)",
				"entries", "sssp-cycles", "speedup-vs-4", "mpki")
			run := func(n int) *stats.Run {
				o := f.minnowOpts(true)
				o.EngineLoadBuf = n
				return b.run("SSSP", o)
			}
			base := run(4)
			for _, n := range []int{4, 8, 16, 32, 64} {
				r := run(n)
				b.row(func() []any {
					return []any{n, r.WallCycles, float64(base.WallCycles) / float64(r.WallCycles), r.L2MPKI()}
				})
			}
		},
	},
	{
		// §5.2's operation grouping ("several memory allocation and
		// deallocation tasks may be grouped together"): spill threadlets
		// carrying 1 to 64 tasks per lock acquisition.
		Name: "ablation-spill",
		build: func(f FigOptions, b *builder) {
			b.table("Ablation: spill grouping (§5.2; tasks per spill threadlet)",
				"batch", "cc-cycles", "speedup-vs-1")
			run := func(n int) *stats.Run {
				o := f.minnowOpts(false)
				o.EngineSpillBatch = n
				return b.run("CC", o)
			}
			base := run(1)
			for _, n := range []int{1, 4, 16, 64} {
				r := run(n)
				b.row(func() []any { return []any{n, r.WallCycles, float64(base.WallCycles) / float64(r.WallCycles)} })
			}
		},
	},
	{
		// §4's unexplored variant: "cores may share a single Minnow engine
		// to reduce resources. This work focuses on cores with dedicated
		// Minnow engines." Sharing halves/quarters the engine area but
		// serializes the back-end across its cores.
		Name: "ablation-sharing",
		build: func(f FigOptions, b *builder) {
			b.table("Ablation: cores per Minnow engine (§4: dedicated vs shared)",
				"cores/engine", "sssp-cycles", "slowdown", "area-mm2/core@14nm")
			run := func(share int) *stats.Run {
				o := f.minnowOpts(true)
				o.EngineSharing = share
				return b.run("SSSP", o)
			}
			dedicated := run(1)
			area := core.Area(core.DefaultConfig(), 256*1024/64).Total14nm
			for _, share := range []int{1, 2, 4} {
				r := run(share)
				b.row(func() []any {
					return []any{share, r.WallCycles, float64(r.WallCycles) / float64(dedicated.WallCycles), area / float64(share)}
				})
			}
		},
	},
}

// creditRuns asks for the credit sweep of Figs. 18-20: bench on Minnow
// with prefetching at each credit count.
func creditRuns(f FigOptions, b *builder, bench string) []*stats.Run {
	var runs []*stats.Run
	for _, c := range f.creditSet() {
		o := f.minnowOpts(true)
		o.Credits = c
		runs = append(runs, b.run(bench, o))
	}
	return runs
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
