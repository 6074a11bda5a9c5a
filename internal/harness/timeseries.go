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

// tsFigure declares a time-resolved figure: one sampled column of SSSP
// under the software-OBIM baseline and under the full Minnow
// configuration (engines + worklist-directed prefetching), one row per
// sampling interval. The shorter run pads with "-" once it has
// terminated (Minnow typically finishes first, which is itself the
// figure's point).
func tsFigure(f FigOptions, b *builder, title, column string) {
	b.table(title, "cycle", "obim", "minnow+pf")
	ob := f.base()
	ob.MetricsEvery = tsInterval
	mn := f.minnowOpts(true)
	mn.MetricsEvery = tsInterval
	obRun, mnRun := b.run("SSSP", ob), b.run("SSSP", mn)
	b.fill(func(t *stats.Table) error {
		base, minnow := obRun.Intervals, mnRun.Intervals
		n := max(base.Len(), minnow.Len())
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
		return nil
	})
}
