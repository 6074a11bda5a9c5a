package harness

import (
	"testing"

	"minnow/internal/graph"
	"minnow/internal/kernels"
)

// Edge cases and failure injection: degenerate inputs, starved
// configurations, and hostile parameter combinations must terminate and
// verify (or fail loudly), never hang.

func TestMoreThreadsThanWork(t *testing.T) {
	// 64 threads on the tiny TC input: most workers never see a task.
	spec, _ := kernels.SpecByName("TC")
	r, err := Run(spec, Options{Config: Config{Threads: 64, Seed: 42}})
	if err != nil {
		t.Fatal(err)
	}
	if r.WorkItems == 0 {
		t.Fatal("no work executed")
	}
}

func TestSingleTaskBudget(t *testing.T) {
	spec, _ := kernels.SpecByName("SSSP")
	r, err := Run(spec, Options{Config: Config{Threads: 4, Seed: 42, WorkBudget: 1, SkipVerify: true}})
	if err != nil {
		t.Fatal(err)
	}
	if !r.TimedOut || r.WorkItems != 1 {
		t.Fatalf("budget=1 run: timedOut=%v items=%d", r.TimedOut, r.WorkItems)
	}
}

func TestMinnowWithOneThread(t *testing.T) {
	// Engine offload must also work degenerate-serially.
	spec, _ := kernels.SpecByName("BC")
	r, err := Run(spec, Options{Config: Config{Threads: 1, Seed: 42, Scheduler: "minnow", Prefetch: true}})
	if err != nil {
		t.Fatal(err)
	}
	if r.WallCycles == 0 {
		t.Fatal("empty run")
	}
}

func TestEngineSharingAcrossOddGroups(t *testing.T) {
	// 5 threads with 2-way sharing: groups of 2,2,1.
	spec, _ := kernels.SpecByName("CC")
	r, err := Run(spec, Options{Config: Config{Threads: 5, Seed: 42, Scheduler: "minnow", Prefetch: true}, EngineSharing: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Engines) != 3 {
		t.Fatalf("engines %d, want 3", len(r.Engines))
	}
}

func TestTinyEngineStructures(t *testing.T) {
	// Hostile engine sizing: everything minimal, still must drain.
	spec, _ := kernels.SpecByName("SSSP")
	r, err := Run(spec, Options{
		Config:       Config{Threads: 4, Seed: 42, Scheduler: "minnow", Prefetch: true},
		EngineLocalQ: 2, EngineLoadBuf: 1, EngineSpillBatch: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.WorkItems == 0 {
		t.Fatal("no work")
	}
}

func TestOneMemoryChannel(t *testing.T) {
	spec, _ := kernels.SpecByName("BFS")
	if _, err := Run(spec, Options{Config: Config{Threads: 4, Seed: 42, MemChannels: 1}}); err != nil {
		t.Fatal(err)
	}
}

func TestCreditsOne(t *testing.T) {
	// A single prefetch credit: the throttle is maximally tight but must
	// not deadlock the engine.
	spec, _ := kernels.SpecByName("CC")
	r, err := Run(spec, Options{Config: Config{Threads: 4, Seed: 42, Scheduler: "minnow", Prefetch: true, Credits: 1}})
	if err != nil {
		t.Fatal(err)
	}
	var pf int64
	for _, e := range r.Engines {
		pf += e.Prefetches
	}
	if pf == 0 {
		t.Fatal("one credit prevented all prefetching")
	}
}

func TestAllBenchmarksAtTwoSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep")
	}
	for _, spec := range kernels.Suite() {
		for _, seed := range []uint64{1, 99} {
			o := Options{Config: Config{Threads: 4, Seed: seed, Scheduler: "minnow", Prefetch: true, SplitThreshold: 2048}}
			if _, err := Run(spec, o); err != nil {
				t.Fatalf("%s seed %d: %v", spec.Name, seed, err)
			}
		}
	}
}

func TestTracingDoesNotChangeTiming(t *testing.T) {
	spec, _ := kernels.SpecByName("BC")
	a, err := Run(spec, Options{Config: Config{Threads: 4, Seed: 42, Scheduler: "minnow", Prefetch: true}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec, Options{Config: Config{Threads: 4, Seed: 42, Scheduler: "minnow", Prefetch: true, TraceEvents: 64}})
	if err != nil {
		t.Fatal(err)
	}
	if a.WallCycles != b.WallCycles {
		t.Fatalf("tracing perturbed the simulation: %d vs %d", a.WallCycles, b.WallCycles)
	}
	if b.Trace.Seen() == 0 {
		t.Fatal("no trace recorded")
	}
}

func TestCustomGraphThroughKernels(t *testing.T) {
	// A hand-built two-component graph exercised through the SSSP kernel
	// (unreachable nodes keep the sentinel distance). The catalogue entry
	// binds it and constructs the kernel in the harness's own address
	// space; only the input and the constructor hook are overridden.
	spec, err := kernels.SpecByName("SSSP")
	if err != nil {
		t.Fatal(err)
	}
	spec.Input = func(int, uint64) *graph.Graph {
		b := graph.NewBuilder(4, true)
		b.AddUndirectedWeighted(0, 1, 3)
		// nodes 2,3 disconnected from the source component
		b.AddUndirectedWeighted(2, 3, 5)
		return b.Build("two-islands")
	}
	var k *kernels.SSSP
	newSSSP := spec.New
	spec.New = func(g *graph.Graph, src int32, as *graph.AddrSpace, cores int) kernels.Kernel {
		k = newSSSP(g, src, as, cores).(*kernels.SSSP)
		return k
	}
	if _, err := Run(spec, Options{Config: Config{Threads: 1, Seed: 42}}); err != nil {
		t.Fatal(err)
	}
	d := k.Dist()
	if d[1] != 3 {
		t.Fatalf("dist[1] = %d", d[1])
	}
	if d[2] < 1<<40 || d[3] < 1<<40 {
		t.Fatalf("disconnected nodes reached: %v", d)
	}
}
