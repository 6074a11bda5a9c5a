package minnow

import (
	"strings"
	"testing"
)

func TestBenchmarksList(t *testing.T) {
	b := Benchmarks()
	if len(b) != 8 { // Table-2 suite + the KCORE extension
		t.Fatalf("benchmarks %v", b)
	}
}

func TestKCoreExtensionThroughPublicAPI(t *testing.T) {
	res, err := Run("KCORE", Config{Threads: 4, Minnow: true, Prefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tasks == 0 {
		t.Fatal("no k-core work executed")
	}
}

func TestPublicRun(t *testing.T) {
	res, err := Run("SSSP", Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.WallCycles <= 0 || res.Tasks <= 0 || res.Instructions <= 0 {
		t.Fatalf("empty result %+v", res)
	}
	if res.Benchmark != "SSSP" || res.Threads != 2 {
		t.Fatalf("metadata wrong %+v", res)
	}
}

func TestPublicRunMinnowPrefetch(t *testing.T) {
	res, err := Run("CC", Config{Threads: 2, Minnow: true, Prefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.EnginePrefetches == 0 {
		t.Fatal("no prefetches issued")
	}
	if res.PrefetchEfficiency <= 0 || res.PrefetchEfficiency > 1 {
		t.Fatalf("efficiency %v", res.PrefetchEfficiency)
	}
}

func TestUnknownBenchmark(t *testing.T) {
	if _, err := Run("BOGUS", Config{}); err == nil {
		t.Fatal("bogus benchmark accepted")
	}
}

func TestCustomPrefetchRequiresMinnow(t *testing.T) {
	f := func(tk Task, g GraphView, emit func(addrs ...uint64)) {}
	if _, err := Run("TC", Config{CustomPrefetch: f}); err == nil {
		t.Fatal("custom prefetch without minnow accepted")
	}
}

func TestCustomPrefetchRuns(t *testing.T) {
	calls := 0
	f := func(tk Task, g GraphView, emit func(addrs ...uint64)) {
		calls++
		emit(g.NodeAddr(tk.Node))
	}
	res, err := Run("TC", Config{Threads: 2, Minnow: true, Prefetch: true, CustomPrefetch: f})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("custom prefetch function never invoked")
	}
	if res.EnginePrefetches == 0 {
		t.Fatal("custom prefetches not issued")
	}
}

// TestCustomPrefetchHashPinned pins the summary hash of a custom-prefetch
// run through each public entry point — Run, RunMany, and RunGraph — so a
// change to how the user's PrefetchFunc is bridged onto the engine cannot
// silently change which addresses it sees.
func TestCustomPrefetchHashPinned(t *testing.T) {
	f := func(tk Task, g GraphView, emit func(addrs ...uint64)) {
		emit(g.NodeAddr(tk.Node))
		lo, hi := g.EdgeRange(tk.Node)
		for i := lo; i < hi && i < lo+4; i++ {
			emit(g.EdgeAddr(i), g.NodeAddr(g.Dest(i)))
		}
	}
	cfg := Config{Threads: 2, Minnow: true, Prefetch: true, CustomPrefetch: f}
	const wantRun = "04e101c1cf7d4ad2314ea98fa074e9392916209008876acc6d2afcff98eeb549"
	const wantGraph = "e21fd1fbed002a1b2bec349c679fe9ca3812e7b48d91fa10740a3309847ee701"

	res, err := Run("SSSP", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SummaryHash != wantRun {
		t.Errorf("Run hash %s, want %s", res.SummaryHash, wantRun)
	}
	many := RunMany([]RunRequest{{Benchmark: "SSSP", Config: cfg}}, 1)
	if many[0].Err != nil {
		t.Fatal(many[0].Err)
	}
	if got := many[0].Result.SummaryHash; got != wantRun {
		t.Errorf("RunMany hash %s, want %s", got, wantRun)
	}
	gres, err := RunGraph("SSSP", NewRoadMesh(600, 7), 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if gres.SummaryHash != wantGraph {
		t.Errorf("RunGraph hash %s, want %s", gres.SummaryHash, wantGraph)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Config{Threads: 3, Seed: 11, Minnow: true, Prefetch: true}
	a, err := Run("BC", cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("BC", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.WallCycles != b.WallCycles || a.Tasks != b.Tasks || a.Instructions != b.Instructions {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestLgIntervalOverride(t *testing.T) {
	lg := uint(2)
	a, err := Run("SSSP", Config{Threads: 2, LgInterval: &lg})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("SSSP", Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.WallCycles == b.WallCycles {
		t.Fatal("bucket interval override had no effect")
	}
}

func TestFiguresRegistry(t *testing.T) {
	figs := Figures()
	if len(figs) != 27 {
		t.Fatalf("figure registry has %d entries: %v", len(figs), figs)
	}
	if _, _, err := RenderFigure("nope", FigureOptions{}); err == nil {
		t.Fatal("unknown figure accepted")
	}
	// Every name is checked before anything runs: were it not, Fig. 3 at
	// the 64-thread default would simulate for minutes first.
	if _, _, err := RenderFigures([]string{"table1", "fig3", "nope"}, FigureOptions{}); err == nil {
		t.Fatal("unknown figure accepted after valid ones")
	}
}

func TestRenderStaticFigures(t *testing.T) {
	for _, name := range []string{"table1", "table3", "area"} {
		text, _, err := RenderFigure(name, FigureOptions{Quick: true, Threads: 4})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(text, "\n") {
			t.Fatalf("%s rendered empty", name)
		}
	}
}

func TestIdealCoreModes(t *testing.T) {
	real, err := Run("PR", Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := Run("PR", Config{Threads: 2, PerfectBP: true, NoFences: true})
	if err != nil {
		t.Fatal(err)
	}
	if ideal.WallCycles >= real.WallCycles {
		t.Fatalf("ideal core (%d) not faster than realistic (%d)", ideal.WallCycles, real.WallCycles)
	}
}

func TestRenderFigureCSV(t *testing.T) {
	_, csv, err := RenderFigure("table1", FigureOptions{Threads: 4, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv, ",") || !strings.Contains(csv, "\n") {
		t.Fatalf("csv malformed: %q", csv[:min(80, len(csv))])
	}
}

func TestTraceThroughPublicAPI(t *testing.T) {
	res, err := Run("BC", Config{Threads: 2, Minnow: true, Prefetch: true, TraceEvents: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.TraceText, "engine trace") {
		t.Fatal("trace text missing")
	}
}
