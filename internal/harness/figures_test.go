package harness

import (
	"strconv"
	"strings"
	"testing"

	"minnow/internal/kernels"
	"minnow/internal/stats"
)

// tiny trims the quick options further for unit-test latency.
func tiny() FigOptions { return FigOptions{Threads: 4, Scale: 1, Quick: true} }

// figure renders one figure through the figure table.
func figure(t *testing.T, name string, f FigOptions) *stats.Table {
	t.Helper()
	tables, _, err := RenderFigures([]string{name}, f)
	if err != nil {
		t.Fatal(err)
	}
	return tables[0]
}

func TestTable1Complete(t *testing.T) {
	tb := figure(t, "table1", tiny())
	if len(tb.Rows) != 7 {
		t.Fatalf("rows %d", len(tb.Rows))
	}
	s := tb.String()
	for _, name := range []string{"USA-road-d.W", "rmat16-2e22", "wiki-Talk"} {
		if !strings.Contains(s, name) {
			t.Fatalf("table1 missing %s:\n%s", name, s)
		}
	}
}

func TestTable3RendersConfig(t *testing.T) {
	s := figure(t, "table3", tiny()).String()
	for _, frag := range []string{"TAGE", "8-way", "mesh", "localQ"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("table3 missing %q:\n%s", frag, s)
		}
	}
}

// TestFiguresJobsInvariant proves the worker pool does not change figure
// output: the rendered tables (and their CSV forms) must be
// byte-identical between a serial and a 4-wide parallel sweep.
func TestFiguresJobsInvariant(t *testing.T) {
	names := []string{"fig5", "fig11"}
	f1 := tiny()
	f1.Jobs = 1
	serial, _, err := RenderFigures(names, f1)
	if err != nil {
		t.Fatal(err)
	}
	f4 := tiny()
	f4.Jobs = 4
	parallel, _, err := RenderFigures(names, f4)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		if serial[i].CSV() != parallel[i].CSV() {
			t.Errorf("%s differs between -jobs 1 and -jobs 4:\nserial:\n%s\nparallel:\n%s",
				name, serial[i].CSV(), parallel[i].CSV())
		}
	}
}

func TestFig5BreakdownRows(t *testing.T) {
	tb := figure(t, "fig5", tiny())
	if len(tb.Rows) != len(tiny().benchNames()) {
		t.Fatalf("rows %d", len(tb.Rows))
	}
}

func TestFig16MinnowWins(t *testing.T) {
	tb := figure(t, "fig16", tiny())
	// The geomean row's prefetch column must beat 1x (the paper's core
	// claim in miniature).
	last := tb.Rows[len(tb.Rows)-1]
	if last[0] != "geomean" {
		t.Fatalf("missing geomean row: %v", last)
	}
	if !(parseF(t, last[2]) > 1.0) {
		t.Fatalf("minnow+prefetch geomean %s not > 1", last[2])
	}
	if !(parseF(t, last[1]) > 1.0) {
		t.Fatalf("minnow geomean %s not > 1", last[1])
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestAreaTable(t *testing.T) {
	s := figure(t, "area", tiny()).String()
	if !strings.Contains(s, "overhead") {
		t.Fatalf("area table:\n%s", s)
	}
}

func TestRunDeterminism(t *testing.T) {
	spec, _ := kernels.SpecByName("PR")
	o := Options{Config: Config{Threads: 3, Seed: 5, Scheduler: "minnow", Prefetch: true}}
	a, err := Run(spec, o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec, o)
	if err != nil {
		t.Fatal(err)
	}
	if a.WallCycles != b.WallCycles || a.L2.Misses != b.L2.Misses {
		t.Fatalf("nondeterministic: %d/%d vs %d/%d", a.WallCycles, a.L2.Misses, b.WallCycles, b.L2.Misses)
	}
}

func TestMinnowBeatsBaselineEverywhere(t *testing.T) {
	// Regression guard on the headline claim at test scale: Minnow with
	// prefetching must not lose to the software baseline on any
	// benchmark.
	for _, spec := range kernels.Suite() {
		base, err := Run(spec, Options{Config: Config{Threads: 4, Seed: 42, SplitThreshold: 2048}})
		if err != nil {
			t.Fatal(err)
		}
		mn, err := Run(spec, Options{Config: Config{Threads: 4, Seed: 42, SplitThreshold: 2048, Scheduler: "minnow", Prefetch: true}})
		if err != nil {
			t.Fatal(err)
		}
		if mn.WallCycles >= base.WallCycles {
			t.Errorf("%s: minnow (%d) not faster than baseline (%d)", spec.Name, mn.WallCycles, base.WallCycles)
		}
	}
}

func TestPrefetchReducesMPKI(t *testing.T) {
	spec, _ := kernels.SpecByName("SSSP")
	off, err := Run(spec, Options{Config: Config{Threads: 4, Seed: 42, Scheduler: "minnow"}})
	if err != nil {
		t.Fatal(err)
	}
	on, err := Run(spec, Options{Config: Config{Threads: 4, Seed: 42, Scheduler: "minnow", Prefetch: true}})
	if err != nil {
		t.Fatal(err)
	}
	if on.L2MPKI() >= off.L2MPKI() {
		t.Fatalf("prefetching raised MPKI: %.1f -> %.1f", off.L2MPKI(), on.L2MPKI())
	}
	if on.L2.Efficiency() < 0.5 {
		t.Fatalf("prefetch efficiency %.2f too low", on.L2.Efficiency())
	}
}

func TestMoreChannelsNeverHurt(t *testing.T) {
	spec, _ := kernels.SpecByName("BFS")
	o := Options{Config: Config{Threads: 4, Seed: 42, Scheduler: "minnow", Prefetch: true}}
	o.MemChannels = 1
	narrow, err := Run(spec, o)
	if err != nil {
		t.Fatal(err)
	}
	o.MemChannels = 12
	wide, err := Run(spec, o)
	if err != nil {
		t.Fatal(err)
	}
	if wide.WallCycles > narrow.WallCycles {
		t.Fatalf("12 channels (%d) slower than 1 (%d)", wide.WallCycles, narrow.WallCycles)
	}
}

func TestGraphMatRunners(t *testing.T) {
	for _, bench := range []string{"SSSP", "BFS", "CC", "PR"} {
		res, err := RunGraphMat(bench, Options{Config: Config{Threads: 4, Seed: 42}})
		if err != nil {
			t.Fatalf("%s: %v", bench, err)
		}
		if res.WallCycles == 0 || res.WorkItems == 0 {
			t.Fatalf("%s: empty result %+v", bench, res)
		}
	}
	if _, err := RunGraphMat("TC", Options{Config: Config{Threads: 2}}); err == nil {
		t.Fatal("graphmat TC should be unsupported")
	}
}

func TestGMatStarRunner(t *testing.T) {
	lg := uint(13)
	res, err := RunGMatStar(Options{Config: Config{Threads: 4, Seed: 42, LgInterval: &lg}})
	if err != nil {
		t.Fatal(err)
	}
	if res.WorkItems == 0 {
		t.Fatal("empty GMat* run")
	}
}

func TestHWPrefetcherOptions(t *testing.T) {
	spec, _ := kernels.SpecByName("PR")
	for _, hw := range []string{"stride", "imp"} {
		r, err := Run(spec, Options{Config: Config{Threads: 2, Seed: 42, HWPrefetcher: hw}})
		if err != nil {
			t.Fatalf("%s: %v", hw, err)
		}
		if r.L2.PrefetchFills == 0 {
			t.Fatalf("%s issued no prefetch fills", hw)
		}
	}
}

func TestUnknownScheduler(t *testing.T) {
	spec, _ := kernels.SpecByName("BC")
	if _, err := Run(spec, Options{Config: Config{Scheduler: "bogus"}}); err == nil {
		t.Fatal("bogus scheduler accepted")
	}
}

// TestRepeatsShareOneRun renders figures whose requests repeat one
// another's runs in each way the repeat key folds: fig3's tuned-interval
// OBIM run writes out the LgInterval fig2's leaves to its default and
// adds SkipVerify; cpistack's runs are fig16's plus Profile; and
// ablation-localq's depth-64 runs write out the default EngineLocalQ of
// fig16's Minnow+prefetch runs. Each such pair is one simulation, and the
// shared run still records the profile cpistack reads.
func TestRepeatsShareOneRun(t *testing.T) {
	f := tiny()
	f.Jobs = 2
	names := []string{"fig2", "fig3", "fig16", "cpistack", "ablation-localq"}
	tables, runs, err := RenderFigures(names, f)
	if err != nil {
		t.Fatal(err)
	}
	// Alone: fig2 9 runs, fig3 7, fig16 9, cpistack 6, ablation-localq 8.
	// Shared: fig3's GraphMat baseline and FIFO run are fig2's, and so is
	// its tuned OBIM run; cpistack's six are fig16's software and
	// Minnow+prefetch runs; localq's two depth-64 runs are fig16's.
	if want := 9 + 7 + 9 + 6 + 8 - 3 - 6 - 2; len(runs) != want {
		t.Errorf("%d distinct runs, want %d", len(runs), want)
	}
	profiled := 0
	for _, r := range runs {
		if r.Job.Opts.Profile {
			profiled++
			if r.Run.Profile == nil {
				t.Errorf("%s: shared run asked for a profile and has none", r.Job.Bench)
			}
		}
	}
	if want := 2 * len(f.benchNames()); profiled != want {
		t.Errorf("%d profiled runs, want %d", profiled, want)
	}
	if cpi := tables[3]; len(cpi.Rows) != 2*len(f.benchNames()) {
		t.Errorf("cpistack has %d rows", len(cpi.Rows))
	}
}
