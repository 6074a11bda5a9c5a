// Command perfbench is the repository's benchmark. It measures the two
// speeds that matter to users of this reproduction — how fast the
// simulator runs on the host, and how fast minnowd turns submissions
// into results — on four fixed workloads, checks every output, and
// prints each metric as "workload metric value unit", then one JSON
// result line.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload sim-sw --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh -workload all -out old.json
//	bash perfbench/run.sh -workload all -compare old.json
//
// -trace 0 reports the end-to-end metrics; -trace 1 runs the same work
// under a sampled CPU profile and reports the per-layer metrics instead.
// README.md beside this file defines every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workDir holds the service workload's cache and journal while it runs,
// relative to the checkout the benchmark runs from. run.sh builds the
// binary into the same directory, which .gitignore excludes.
const workDir = ".bench_build"

// options are the settings one workload run receives.
type options struct {
	seed    uint64
	seconds time.Duration
	// profile wraps the measured phase in a sampled CPU profile and
	// reports the per-layer host-time split (-trace 1).
	profile bool
	// spans, when non-nil, collects the benchmark-side spans for
	// -trace-dir.
	spans *spanLog
	// workDir is where the service workload keeps its state.
	workDir string
	// tiny shrinks every workload to a smoke-test size: one kernel at
	// scale 1 on 2 simulated cores, one pass, two warm and ten canceled
	// service keys. Only the package's own tests set it.
	tiny bool
}

// workload is one named input set of the benchmark.
type workload struct {
	name string
	run  func(options) (*result, error)
}

// workloads lists the benchmark's workloads in run order. Why each one
// exists is recorded in BENCHMARK.json and README.md.
var workloads = []workload{
	{"sim-sw", simSW.run},
	{"sim-minnow", simMinnow.run},
	{"sim-64c", sim64c.run},
	{"svc-mixed", runSvc},
}

func main() {
	var (
		name     = flag.String("workload", "all", "workload to run: sim-sw, sim-minnow, sim-64c, svc-mixed, or all")
		seed     = flag.Uint64("seed", 1, "seed for the graph generators, the arrival schedule and the fresh service keys")
		seconds  = flag.Int("seconds", 25, "how long each workload measures")
		trace    = flag.Int("trace", 0, "1 runs under a CPU profile and reports per-layer metrics; 0 reports end-to-end metrics")
		traceDir = flag.String("trace-dir", "", "with -trace 1, write <workload>.pprof and <workload>.trace.json here")
		out      = flag.String("out", "", "write the minnow-bench-v4 JSON report to this file")
		compare  = flag.String("compare", "", "compare this run against an earlier -out report made with the same -seconds and -trace; exit 1 on hash drift, a regression beyond a bound, or a gated metric it cannot judge")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *traceDir, *out, *compare); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds, trace int, traceDir, out, compare string) error {
	if seconds < 1 {
		return fmt.Errorf("-seconds %d: must be at least 1", seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	if traceDir != "" && trace != 1 {
		return fmt.Errorf("-trace-dir needs -trace 1")
	}
	var selected []workload
	for _, w := range workloads {
		if name == "all" || name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("-workload %q: unknown (want %s or all)", name, strings.Join(workloadNames(), ", "))
	}
	var gates []gate
	var old *report
	if compare != "" {
		// Read the bounds and the old report before spending minutes
		// measuring.
		var err error
		if gates, err = loadGates("BENCHMARK.json"); err != nil {
			return err
		}
		if old, err = readReport(compare); err != nil {
			return err
		}
		if old.Seconds != seconds || old.Traced != (trace == 1) {
			return fmt.Errorf("-compare %s: made with -seconds %d, traced=%v; run with the same settings", compare, old.Seconds, old.Traced)
		}
	}

	o := options{seed: seed, seconds: time.Duration(seconds) * time.Second, profile: trace == 1, workDir: workDir}
	rep := &report{
		Schema:     "minnow-bench-v4",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
		Seconds:    seconds,
		Traced:     o.profile,
		Layers:     layerMap(),
	}
	for i, w := range selected {
		// The first workload of a process starts with a fresh peak; a later
		// one must not report an earlier one's.
		if err := resetPeakRSS(); err != nil && i > 0 {
			return fmt.Errorf("%s: resetting the peak RSS: %w", w.name, err)
		}
		if traceDir != "" {
			o.spans = newSpanLog()
		}
		res, err := w.run(o)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		res.complete(o.profile)
		rep.Workloads = append(rep.Workloads, res)
		res.print(os.Stdout)
		if traceDir != "" {
			if err := writeTrace(traceDir, res, o.spans); err != nil {
				return err
			}
		}
	}
	if out != "" {
		if err := rep.write(out); err != nil {
			return err
		}
	}
	compared := true
	if old != nil {
		var err error
		if compared, err = compareReports(os.Stdout, old, rep, gates); err != nil {
			return err
		}
	}
	ok := rep.printLast(os.Stdout, o.profile)
	if !compared {
		return fmt.Errorf("comparison against %s failed", compare)
	}
	if !ok {
		return fmt.Errorf("outputs failed their checks")
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// writeTrace stores a traced run's CPU profile and span log.
func writeTrace(dir string, res *result, spans *spanLog) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, res.Workload+".pprof"), res.profile, 0o644); err != nil {
		return err
	}
	return spans.write(filepath.Join(dir, res.Workload+".trace.json"))
}

// report is the minnow-bench-v4 JSON schema written by -out and read by
// -compare.
type report struct {
	Schema     string `json:"schema"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	// Layers maps each per-layer metric to the end-to-end metrics it
	// should move and the workloads it moves them on.
	Layers    []layerEntry `json:"per_layer"`
	Workloads []*result    `json:"workloads"`
}

type layerEntry struct {
	Name  string `json:"name"`
	Unit  string `json:"unit"`
	Moves string `json:"moves"`
	On    string `json:"on"`
}

func layerMap() []layerEntry {
	out := make([]layerEntry, len(perLayer))
	for i, d := range perLayer {
		out[i] = layerEntry{d.name, d.unit, d.moves, d.on}
	}
	return out
}

func (r *report) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != "minnow-bench-v4" {
		return nil, fmt.Errorf("%s: schema %q, want minnow-bench-v4", path, r.Schema)
	}
	return &r, nil
}

// printLast prints the final JSON result line: the declared end-to-end
// metrics of an untraced run or per-layer metrics of a traced one. With several
// workloads, metric names are prefixed by the workload. It reports
// whether every output passed its checks.
func (r *report) printLast(w io.Writer, traced bool) bool {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	declared := endToEnd
	if traced {
		declared = perLayer
	}
	for _, res := range r.Workloads {
		last.Correct = last.Correct && res.Correct
		last.Attempted += res.Attempted
		last.Failed += res.Failed
		for _, d := range declared {
			name := d.name
			if len(r.Workloads) > 1 {
				name = res.Workload + "." + name
			}
			last.Metrics[name] = value{res.Metrics[d.name].Value, d.unit}
		}
	}
	data, err := json.Marshal(last)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Fprintln(w, string(data))
	return last.Correct
}

// print writes one "workload metric value unit" line per metric, sorted
// by name, with the sample count beside every percentile.
func (r *result) print(w io.Writer) {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		line := fmt.Sprintf("%s %s %.6g %s", r.Workload, name, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" n=%d", m.N)
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "%s correct=%v attempted=%d failed=%d\n", r.Workload, r.Correct, r.Attempted, r.Failed)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "%s error: %s\n", r.Workload, e)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "%s note: %s\n", r.Workload, n)
	}
}
