package harness

import (
	"strconv"

	"minnow/internal/obs"
	"minnow/internal/stats"
)

// tsInterval is the sampling interval the time-resolved figures use: wide
// enough that scale-1 runs still get a handful of rows, narrow enough
// that the paper-scale sweeps resolve the occupancy ramp.
const tsInterval = 25_000

// tsJobs are the runs behind the time-resolved figures: SSSP under the
// software-OBIM baseline and under the full Minnow configuration (engines
// + worklist-directed prefetching), with interval sampling on.
func tsJobs(f FigOptions) []Job {
	ob := f.base()
	ob.MetricsEvery = tsInterval
	mn := f.minnowOpts(true)
	mn.MetricsEvery = tsInterval
	return []Job{{Bench: "SSSP", Opts: ob}, {Bench: "SSSP", Opts: mn}}
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
