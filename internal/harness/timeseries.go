package harness

import (
	"fmt"
	"strconv"

	"minnow/internal/obs"
	"minnow/internal/stats"
)

// tsInterval is the sampling interval the time-resolved figures use: wide
// enough that scale-1 runs still get a handful of rows, narrow enough
// that the paper-scale sweeps resolve the occupancy ramp.
const tsInterval = 25_000

// tsRuns executes one benchmark under the software-OBIM baseline and the
// full Minnow configuration (engines + worklist-directed prefetching)
// with interval sampling on, honoring the figure worker pool.
func tsRuns(f FigOptions, bench string) (base, minnow *obs.Registry, err error) {
	ob := f.base()
	ob.MetricsEvery = tsInterval
	mn := f.base()
	mn.MetricsEvery = tsInterval
	mn.Scheduler = "minnow"
	mn.Prefetch = true
	runs, err := f.runAll([]Job{{Bench: bench, Opts: ob}, {Bench: bench, Opts: mn}})
	if err != nil {
		return nil, nil, err
	}
	return runs[0].Intervals, runs[1].Intervals, nil
}

// colIndex locates a registry column by name (-1 when absent, e.g. the
// engine columns on a software-scheduler run).
func colIndex(r *obs.Registry, name string) int {
	for i, h := range r.Header() {
		if h == name {
			return i
		}
	}
	return -1
}

// tsCell formats one sampled value, or "-" past the end of a run.
func tsCell(r *obs.Registry, row, col int) string {
	if row >= r.Len() || col < 0 {
		return "-"
	}
	_, vals := r.Row(row)
	return stats.FormatFloat(vals[col])
}

// tsTable assembles a two-configuration time-series comparison for one
// sampled column. Rows are indexed by interval; the shorter run pads with
// "-" once it has terminated (Minnow typically finishes first, which is
// itself the figure's point).
func tsTable(title, column string, base, minnow *obs.Registry) *stats.Table {
	t := &stats.Table{
		Title:   title,
		Headers: []string{"cycle", "obim", "minnow+pf"},
	}
	n := base.Len()
	if minnow.Len() > n {
		n = minnow.Len()
	}
	bi, mi := colIndex(base, column), colIndex(minnow, column)
	for row := 0; row < n; row++ {
		var stamp int64
		if row < base.Len() {
			s, _ := base.Row(row)
			stamp = int64(s)
		} else {
			s, _ := minnow.Row(row)
			stamp = int64(s)
		}
		t.AddRow(strconv.FormatInt(stamp, 10), tsCell(base, row, bi), tsCell(minnow, row, mi))
	}
	return t
}

// FigOccupancy regenerates the paper's worklist-occupancy-over-time view
// (Fig. 2): tasks queued anywhere in the scheduling fabric, sampled every
// tsInterval cycles, for the OBIM baseline vs Minnow with prefetching on
// the SSSP workload.
func FigOccupancy(f FigOptions) (*stats.Table, error) {
	base, minnow, err := tsRuns(f, "SSSP")
	if err != nil {
		return nil, err
	}
	return tsTable("Fig 2-style: SSSP worklist occupancy over time (tasks queued)",
		"occupancy", base, minnow), nil
}

// FigIntervalMPKI regenerates the time-resolved L2 miss-rate view behind
// the paper's prefetching results (Fig. 13): interval demand L2 MPKI for
// the OBIM baseline vs Minnow with worklist-directed prefetching, showing
// the miss rate collapsing once prefetched lines arrive ahead of the
// consuming tasks.
func FigIntervalMPKI(f FigOptions) (*stats.Table, error) {
	base, minnow, err := tsRuns(f, "SSSP")
	if err != nil {
		return nil, err
	}
	return tsTable("Fig 13-style: SSSP interval demand L2 MPKI over time",
		"l2_mpki", base, minnow), nil
}

// sojournGaps are the FigSojourn offered-load sweep points: mean Poisson
// inter-arrival gaps in cycles, densest (highest load) last so the
// latency knee sits at the bottom of the table.
var sojournGaps = []int64{5000, 2000, 1000, 600, 400}
var sojournGapsQuick = []int64{2000, 600}

// FigSojourn renders the open-loop latency view the paper's closed-loop
// evaluation cannot show: sojourn and queue-wait percentiles versus
// offered load on SSSP under the full Minnow configuration. Sweeping the
// mean Poisson inter-arrival gap from sparse to dense exposes the
// latency knee — the load beyond which arrival tasks queue faster than
// the machine retires them and the percentiles take off.
func FigSojourn(f FigOptions) (*stats.Table, error) {
	gaps := sojournGaps
	count := int64(256)
	if f.Quick {
		gaps = sojournGapsQuick
		count = 96
	}
	var jobs []Job
	for _, gap := range gaps {
		o := f.base()
		o.Scheduler = "minnow"
		o.Prefetch = true
		o.Arrivals = fmt.Sprintf("seed=1;poisson:gap=%d,count=%d", gap, count)
		jobs = append(jobs, Job{Bench: "SSSP", Opts: o})
	}
	runs, err := f.runAll(jobs)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title: "Open-loop SSSP latency vs offered load (Minnow+pf, Poisson arrivals)",
		Headers: []string{"mean gap (cyc)", "injected", "retired",
			"wait p50", "wait p95", "wait p99",
			"sojourn p50", "sojourn p95", "sojourn p99"},
	}
	for i, r := range runs {
		l := r.Latency
		if l == nil || len(l.Classes) == 0 {
			return nil, fmt.Errorf("harness: sojourn figure: run with gap=%d reported no latency stats", gaps[i])
		}
		c := l.Classes[0]
		t.AddRow(strconv.FormatInt(gaps[i], 10),
			strconv.FormatInt(c.Injected, 10), strconv.FormatInt(c.Retired, 10),
			strconv.FormatInt(c.WaitP50, 10), strconv.FormatInt(c.WaitP95, 10), strconv.FormatInt(c.WaitP99, 10),
			strconv.FormatInt(c.SojournP50, 10), strconv.FormatInt(c.SojournP95, 10), strconv.FormatInt(c.SojournP99, 10))
	}
	return t, nil
}
