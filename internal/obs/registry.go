package obs

import (
	"math"
	"strconv"
	"strings"

	"minnow/internal/sim"
)

// colKind distinguishes the sampled column flavors.
type colKind uint8

const (
	colGauge   colKind = iota // instantaneous value
	colCounter                // per-interval delta of a cumulative counter
	colRate                   // Δnum/Δden × scale over the interval
)

// column is one registered metric.
type column struct {
	name     string
	kind     colKind
	fn       func() int64 // gauge / counter source
	num, den func() int64 // rate sources
	scale    float64
	prevFn   int64 // counter state at the previous sample
	prevNum  int64
	prevDen  int64
}

// Registry is the time-series sampling registry: a set of named columns
// snapshotted at fixed simulated-cycle boundaries into interval rows.
// The harness installs a sim.Engine probe that calls Sample at every
// crossed boundary and Flush once at run end, so rows land at cycles
// N, 2N, 3N, ... plus one final partial-interval row.
//
// Column sources are plain closures over simulation counters; they are
// read at sample time and never written, which is what keeps sampling
// invisible to the simulated execution (see the package determinism
// contract). A nil *Registry is a valid disabled registry: every method
// is nil-receiver-safe and the sampling entry points are allocation-free
// in that state, matching the package's one-branch-per-site discipline.
type Registry struct {
	every  sim.Time
	cols   []column
	stamps []sim.Time
	rows   [][]float64
}

// NewRegistry returns a registry sampling every `every` cycles. every
// must be positive.
func NewRegistry(every sim.Time) *Registry {
	if every <= 0 {
		panic("obs: registry interval must be positive")
	}
	return &Registry{every: every}
}

// Every returns the sampling interval in cycles (0 on a nil registry).
func (r *Registry) Every() sim.Time {
	if r == nil {
		return 0
	}
	return r.every
}

// Gauge registers an instantaneous column: each row records fn() at the
// sample instant (worklist occupancy, credit level, queue depths).
func (r *Registry) Gauge(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.cols = append(r.cols, column{name: name, kind: colGauge, fn: fn})
}

// Counter registers a cumulative-counter column: each row records the
// counter's increase since the previous row (misses, flits, tasks).
func (r *Registry) Counter(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.cols = append(r.cols, column{name: name, kind: colCounter, fn: fn})
}

// Rate registers a derived column: each row records Δnum/Δden × scale
// over the interval (MPKI with scale 1000, IPC with scale 1, prefetch
// accuracy with scale 1). Rows where Δden is zero record 0.
func (r *Registry) Rate(name string, num, den func() int64, scale float64) {
	if r == nil {
		return
	}
	r.cols = append(r.cols, column{name: name, kind: colRate, num: num, den: den, scale: scale})
}

// Sample appends one row stamped `at`, reading every column. The caller
// (the sim probe) guarantees monotonically increasing stamps.
func (r *Registry) Sample(at sim.Time) {
	if r == nil {
		return
	}
	row := make([]float64, len(r.cols))
	for i := range r.cols {
		c := &r.cols[i]
		switch c.kind {
		case colGauge:
			row[i] = float64(c.fn())
		case colCounter:
			v := c.fn()
			row[i] = float64(v - c.prevFn)
			c.prevFn = v
		case colRate:
			n, d := c.num(), c.den()
			dn, dd := n-c.prevNum, d-c.prevDen
			c.prevNum, c.prevDen = n, d
			if dd != 0 {
				row[i] = float64(dn) / float64(dd) * c.scale
			}
		}
	}
	r.stamps = append(r.stamps, at)
	r.rows = append(r.rows, row)
}

// Flush records the final partial interval: if the run ended after the
// last emitted boundary (or before the first), one last row stamped with
// the end time is appended. Runs shorter than one interval therefore
// still produce exactly one row. Sampling an empty tail (end exactly on
// the last boundary) is skipped.
func (r *Registry) Flush(end sim.Time) {
	if r == nil {
		return
	}
	if n := len(r.stamps); n > 0 && r.stamps[n-1] >= end {
		return
	}
	r.Sample(end)
}

// Len returns the number of rows recorded.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return len(r.rows)
}

// Header returns the column names, without the leading cycle stamp.
func (r *Registry) Header() []string {
	if r == nil {
		return nil
	}
	out := make([]string, len(r.cols))
	for i := range r.cols {
		out[i] = r.cols[i].name
	}
	return out
}

// Row returns the stamp and values of row i.
func (r *Registry) Row(i int) (sim.Time, []float64) {
	return r.stamps[i], r.rows[i]
}

// formatCell renders one value compactly and deterministically: integral
// values print as integers, everything else with six significant digits.
func formatCell(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// PromText renders the most recent sample row in the Prometheus text
// exposition format, one `minnow_<column> value` line per column plus a
// `minnow_cycles` line carrying the row's simulated-cycle stamp. Column
// names are sanitized (non-alphanumerics become underscores). Returns
// the empty string until the first sample lands, and on a nil registry.
func (r *Registry) PromText() string {
	if r == nil || len(r.rows) == 0 {
		return ""
	}
	i := len(r.rows) - 1
	var b strings.Builder
	b.WriteString("minnow_cycles ")
	b.WriteString(strconv.FormatInt(int64(r.stamps[i]), 10))
	b.WriteByte('\n')
	for j := range r.cols {
		b.WriteString("minnow_")
		for _, ch := range r.cols[j].name {
			if ch >= 'a' && ch <= 'z' || ch >= 'A' && ch <= 'Z' || ch >= '0' && ch <= '9' || ch == '_' {
				b.WriteRune(ch)
			} else {
				b.WriteByte('_')
			}
		}
		b.WriteByte(' ')
		b.WriteString(formatCell(r.rows[i][j]))
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the interval rows as comma-separated values with a leading
// "cycle" column, the format cmd/figures and external plotting consume.
func (r *Registry) CSV() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	b.WriteString("cycle")
	for i := range r.cols {
		b.WriteByte(',')
		b.WriteString(r.cols[i].name)
	}
	b.WriteByte('\n')
	for i, row := range r.rows {
		b.WriteString(strconv.FormatInt(int64(r.stamps[i]), 10))
		for _, v := range row {
			b.WriteByte(',')
			b.WriteString(formatCell(v))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
