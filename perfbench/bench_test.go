package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"io"
	"maps"
	"math"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// declared is the metric part of BENCHMARK.json.
type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeclaredMetricsMatchCode pins BENCHMARK.json to the metric lists
// the program reports: the same names, in the same units.
func TestDeclaredMetricsMatchCode(t *testing.T) {
	d := readDeclared(t)
	for _, c := range []struct {
		kind     string
		declared []struct{ Name, Unit string }
		code     []decl
	}{{"end-to-end", d.EndToEnd, endToEnd}, {"per-layer", d.PerLayer, perLayer}} {
		if len(c.declared) != len(c.code) {
			t.Errorf("%d %s metrics declared, program reports %d", len(c.declared), c.kind, len(c.code))
			continue
		}
		for i, m := range c.declared {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("%s metric %d declared %s %s, program reports %s %s", c.kind, i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}

// TestWorkloadsEmitEveryMetric runs every workload at its tiny size with
// the CPU profile on and checks that every output passed its checks,
// that each declared metric is reported with a well-formed name and its
// declared unit, and that the result line holds exactly the declared
// metrics of its mode.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	d := readDeclared(t)
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := options{seed: 1, seconds: 2 * time.Second, profile: true, workDir: t.TempDir(), tiny: true}
			res, err := w.run(o)
			if err != nil {
				t.Fatal(err)
			}
			res.complete(true)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d errors=%v", res.Correct, res.Attempted, res.Failed, res.Errors)
			}
			for _, want := range append(d.EndToEnd, d.PerLayer...) {
				m, ok := res.Metrics[want.Name]
				switch {
				case !valid.MatchString(want.Name):
					t.Errorf("metric name %q is malformed", want.Name)
				case !ok:
					t.Errorf("metric %s not reported", want.Name)
				case m.Unit != want.Unit:
					t.Errorf("metric %s reported in %q, declared in %q", want.Name, m.Unit, want.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("metric %s = %v", want.Name, m.Value)
				}
			}
			if res.Metrics["host.named_pct"].Value <= 0 {
				t.Errorf("traced run charged no CPU time to a named layer")
			}
			for _, traced := range []bool{false, true} {
				var out bytes.Buffer
				(&report{Workloads: []*result{res}}).printLast(&out, traced)
				var last struct {
					Correct   bool
					Attempted int
					Metrics   map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal(out.Bytes(), &last); err != nil {
					t.Fatal(err)
				}
				want := d.EndToEnd
				if traced {
					want = d.PerLayer
				}
				if len(last.Metrics) != len(want) || !last.Correct || last.Attempted != res.Attempted {
					t.Errorf("traced=%v result line %s: want exactly the %d declared metrics", traced, out.Bytes(), len(want))
				}
			}
		})
	}
}

// The protobuf encoding used to build a synthetic pprof profile.
func pbVarint(b []byte, num int, v uint64) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(b, uint64(num)<<3), v)
}

func pbBytes(b []byte, num int, data []byte) []byte {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	return append(binary.AppendUvarint(b, uint64(len(data))), data...)
}

// TestAttributeInnermostModuleFrame checks the attribution rule on a
// synthetic profile: a sample goes to the package of its innermost frame
// in this module, inlined frames included; otherwise to gc when the
// collector took it, else to other.
func TestAttributeInnermostModuleFrame(t *testing.T) {
	funcs := []string{
		"main.runPass",                               // 1
		"minnow/internal/mem.(*System).Access",       // 2
		"runtime.mallocgc",                           // 3
		"minnow/internal/service/cache.(*Cache).Put", // 4
		"runtime.gcBgMarkWorker",                     // 5
		"net/http.(*conn).serve",                     // 6
		"minnow.RunGraph",                            // 7
		"minnow/internal/sim.(*Engine[go.shape.*minnow/internal/mem.Line]).Step", // 8
		"minnow/internal/core.(*Engine).Tick",                                    // 9
		"main.calibrate",                                                         // 10
	}
	var p []byte
	for _, s := range append([]string{""}, funcs...) {
		p = pbBytes(p, 6, []byte(s))
	}
	for i := range funcs {
		var fn []byte
		fn = pbVarint(fn, 1, uint64(i+1))
		fn = pbVarint(fn, 2, uint64(i+1))
		p = pbBytes(p, 5, fn)
	}
	// Location i+1 holds function i+1, and location 20 has mem.Access
	// inlined into core.Tick (innermost line first).
	for i := range funcs {
		var loc, line []byte
		loc = pbVarint(loc, 1, uint64(i+1))
		line = pbVarint(line, 1, uint64(i+1))
		p = pbBytes(p, 4, pbBytes(loc, 4, line))
	}
	var loc []byte
	loc = pbVarint(loc, 1, 20)
	loc = pbBytes(loc, 4, pbVarint(nil, 1, 2))
	loc = pbBytes(loc, 4, pbVarint(nil, 1, 9))
	p = pbBytes(p, 4, loc)

	ms := uint64(time.Millisecond)
	sample := func(ns uint64, locs ...uint64) {
		var s, packed []byte
		for _, l := range locs {
			packed = binary.AppendUvarint(packed, l)
		}
		s = pbBytes(s, 1, packed)
		s = pbBytes(s, 2, binary.AppendUvarint(binary.AppendUvarint(nil, 1), ns))
		p = pbBytes(p, 2, s)
	}
	sample(10*ms, 3, 2, 1)     // mallocgc under mem.Access: mem
	sample(20*ms, 3, 4, 6)     // mallocgc under cache.Put: service.cache
	sample(30*ms, 5)           // the collector: gc
	sample(40*ms, 6)           // no module frame: other
	sample(50*ms, 3, 1)        // the benchmark's own code: bench
	sample(60*ms, 7)           // the root API package: harness
	sample(70*ms, 8, 7)        // a generic method: sim
	sample(80*ms, 3, 20, 1)    // inlined mem.Access in core.Tick: mem
	sample(90*ms, 3, 5)        // allocation by the collector: gc
	sample(100*ms, 10, 1)      // the calibration loop: left out
	p = pbVarint(p, 12, 10*ms) // period

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := attribute(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"mem": 0.09, "service.cache": 0.02, "gc": 0.12, "other": 0.04,
		"bench": 0.05, "harness": 0.06, "sim": 0.07}
	if len(got) != len(want) {
		t.Errorf("layers %v, want %v", got, want)
	}
	for layer, sec := range want {
		if math.Abs(got[layer]-sec) > 1e-9 {
			t.Errorf("%s: %v s, want %v s", layer, got[layer], sec)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(data, n=4), the spread definition the bounds use.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1, 4, 2}, 1.25, 4.75},
	} {
		q1, q3 := quartiles(c.data)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.data, q1, q3, c.q1, c.q3)
		}
	}
}

// TestCompareFailsOnRegressionAndDrift checks the compare gate: a
// regression beyond its bound fails, one within it passes, a pair whose
// passes spread wider than the bound is unresolved rather than failed, a
// changed summary hash fails, a gated metric missing or 0 on either side
// fails, a workload-specific gate applies only to its workload, a new
// failure fails, and reports made with different settings are refused.
func TestCompareFailsOnRegressionAndDrift(t *testing.T) {
	gates := append([]gate{
		{Name: "run_s", Better: "lower", Bound: 0.1},
		{Name: "sim_mips", Better: "higher", Bound: 0.1},
	}, extraGates...)
	type rep struct {
		run, mips  float64
		runSamples []float64
		hash       string
		failed     int
		svc        map[string]float64 // svc-mixed's metrics; nil leaves it out
	}
	svc := map[string]float64{"svc_hit_p50_ms": 1, "svc_miss_p50_ms": 350, "svc_cold_jobs_per_s": 5, "svc_goodput_pct": 98}
	build := func(c rep) *report {
		r := newResult("sim-sw")
		r.Metrics["run_s"] = metric{Value: c.run, Unit: "s", Samples: c.runSamples}
		r.Metrics["sim_mips"] = metric{Value: c.mips, Unit: "Muops/s"}
		r.Hashes["SSSP"] = c.hash
		r.Attempted, r.Failed = 3, c.failed
		res := []*result{r}
		if c.svc != nil {
			s := newResult("svc-mixed")
			s.Metrics["run_s"] = metric{Value: 0.35, Unit: "s"}
			s.Metrics["sim_mips"] = metric{Value: 25, Unit: "Muops/s"}
			for name, v := range c.svc {
				s.Metrics[name] = metric{Value: v}
			}
			s.Attempted = 10
			res = append(res, s)
		}
		for _, r := range res {
			r.complete(false)
		}
		return &report{Schema: "minnow-bench-v4", Seed: 1, Seconds: 25, Workloads: res}
	}
	with := func(name string, v float64) map[string]float64 {
		m := maps.Clone(svc)
		m[name] = v
		return m
	}
	base := build(rep{10, 20, []float64{10, 10, 10}, "h", 0, svc})
	for _, c := range []struct {
		name string
		cur  rep
		ok   bool
		want string
	}{
		{"within bounds", rep{10.5, 19, []float64{10.5, 10.5, 10.5}, "h", 0, svc}, true, "ok"},
		{"slower", rep{12, 20, []float64{12, 12, 12}, "h", 0, svc}, false, "REGRESSION"},
		{"lower throughput", rep{10, 17, nil, "h", 0, svc}, false, "REGRESSION"},
		{"noisy", rep{12, 20, []float64{9, 12, 15}, "h", 0, svc}, true, "unresolved"},
		{"hash drift", rep{10, 20, nil, "other", 0, svc}, false, "HASH DRIFT"},
		{"zero", rep{0, 20, nil, "h", 0, svc}, false, "CANNOT JUDGE"},
		{"failure", rep{10, 20, nil, "h", 1, svc}, false, "ops_failed_pct: 0 -> 33.3333 % (+33.3 %, bound 0 %) REGRESSION"},
		{"slower hits", rep{10, 20, nil, "h", 0, with("svc_hit_p50_ms", 2)}, false, "svc-mixed svc_hit_p50_ms: 1 -> 2"},
		{"lower goodput", rep{10, 20, nil, "h", 0, with("svc_goodput_pct", 94)}, false, "svc_goodput_pct: 98 -> 94"},
		{"dropped percentile", rep{10, 20, nil, "h", 0, with("svc_miss_p50_ms", 0)}, false, "svc_miss_p50_ms: CANNOT JUDGE"},
		{"workload missing", rep{10, 20, nil, "h", 0, nil}, true, "ok"},
	} {
		var out bytes.Buffer
		ok, err := compareReports(&out, base, build(c.cur), gates)
		if err != nil || ok != c.ok || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: ok=%v err=%v, want ok=%v and %q in the output:\n%s", c.name, ok, err, c.ok, c.want, out.String())
		}
		if strings.Contains(out.String(), "sim-sw svc_") {
			t.Errorf("%s: a svc-mixed gate judged sim-sw:\n%s", c.name, out.String())
		}
	}

	// The other direction: a workload of the new report that the old one
	// lacks cannot be judged.
	var out bytes.Buffer
	if ok, _ := compareReports(&out, build(rep{10, 20, nil, "h", 0, nil}), base, gates); ok || !strings.Contains(out.String(), "svc-mixed: MISSING") {
		t.Errorf("new workload: ok=%v, want false; output:\n%s", ok, out.String())
	}
	for _, cur := range []*report{{Seed: 1, Seconds: 20}, {Seed: 1, Seconds: 25, Traced: true}} {
		if _, err := compareReports(io.Discard, base, cur, gates); err == nil {
			t.Errorf("seconds=%d traced=%v compared against seconds=25 traced=false; want an error", cur.Seconds, cur.Traced)
		}
	}
}

// TestPeakRSSNotInherited runs a tiny workload after a large allocation,
// the way -workload all runs one workload after another, and checks that
// the second workload's peak_rss_mb does not include the first one's.
func TestPeakRSSNotInherited(t *testing.T) {
	const bigMB = 256
	big := make([]byte, bigMB<<20)
	for i := 0; i < len(big); i += 4096 {
		big[i] = 1
	}
	first, err := peakRSSMB()
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(big)
	big = nil
	if err := resetPeakRSS(); err != nil {
		t.Fatal(err)
	}
	res, err := simSW.run(options{seed: 1, seconds: time.Second, workDir: t.TempDir(), tiny: true})
	if err != nil {
		t.Fatal(err)
	}
	res.complete(false)
	second := res.Metrics["peak_rss_mb"].Value
	if second <= 0 || second > first-bigMB/2 {
		t.Errorf("peak RSS %.1f MB after the %d MB first workload's %.1f MB; want it below %.1f MB", second, bigMB, first, first-bigMB/2)
	}
}

// TestLayerMapComplete checks that every per-layer metric names the
// end-to-end metrics it should move and the workloads it moves them on,
// and that every end-to-end metric it names exists.
func TestLayerMapComplete(t *testing.T) {
	known := map[string]bool{}
	for _, d := range endToEnd {
		known[d.name] = true
	}
	for _, g := range extraGates {
		known[g.Name] = true
	}
	for _, d := range perLayer {
		if d.moves == "" || d.on == "" {
			t.Errorf("%s: moves %q on %q; want both", d.name, d.moves, d.on)
			continue
		}
		if first := strings.Fields(d.moves)[0]; first == "none:" {
			continue
		}
		for _, m := range strings.Fields(d.moves) {
			if !known[m] {
				t.Errorf("%s moves %q, which is no gated end-to-end metric", d.name, m)
			}
		}
	}
}
