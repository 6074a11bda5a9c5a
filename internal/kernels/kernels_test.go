package kernels

import (
	"math"
	"testing"

	"minnow/internal/cpu"
	"minnow/internal/galois"
	"minnow/internal/graph"
	"minnow/internal/mem"
	"minnow/internal/sim"
	"minnow/internal/worklist"
)

// runKernel executes a kernel through the real framework on a small
// simulated system, bucketing OBIM priorities by lg, and verifies the
// result.
func runKernel(t *testing.T, k Kernel, threads int, lg uint) {
	t.Helper()
	as := graph.NewAddrSpace()
	mcfg := mem.DefaultConfig(threads)
	mcfg.ScaleCaches(16)
	msys := mem.NewSystem(mcfg)
	cores := make([]*cpu.Core, threads)
	for i := range cores {
		cores[i] = cpu.New(i, cpu.DefaultConfig(), msys)
	}
	wl := worklist.NewOBIM(as, threads, 1, lg)
	r := galois.NewRunner(galois.Config{Threads: threads}, cores, &galois.SWScheduler{WL: wl}, k, k.Graph().Degree)
	eng := sim.NewEngine()
	for _, w := range r.Workers() {
		id := eng.Register(w)
		eng.Wake(id, 0)
	}
	r.Seed(k.InitialTasks())
	if _, drained := eng.Run(500_000_000); !drained {
		t.Fatal("kernel did not terminate")
	}
	if err := k.Verify(); err != nil {
		t.Fatal(err)
	}
}

func smallAS() *graph.AddrSpace { return graph.NewAddrSpace() }

// lgInterval is the named benchmark's tuned bucket interval.
func lgInterval(t *testing.T, name string) uint {
	t.Helper()
	s, err := SpecByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s.LgInterval
}

func TestSSSPKernelMultiSeed(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		as := smallAS()
		g := graph.RoadMesh(900, seed)
		g.Bind(as, false)
		runKernel(t, NewSSSP(g, 0, as, 2), 2, lgInterval(t, "SSSP"))
	}
}

func TestSSSPFromDifferentSources(t *testing.T) {
	as := smallAS()
	g := graph.RoadMesh(400, 9)
	g.Bind(as, false)
	for _, src := range []int32{0, 100, 399} {
		runKernel(t, NewSSSP(g, src, as, 2), 2, lgInterval(t, "SSSP"))
	}
}

func TestBFSKernel(t *testing.T) {
	as := smallAS()
	g := graph.UniformRandom(800, 4, 5)
	g.Bind(as, false)
	runKernel(t, NewBFS(g, 0, as, 2), 2, lgInterval(t, "BFS"))
}

func TestBFSOnKronecker(t *testing.T) {
	as := smallAS()
	g := graph.Kronecker(9, 8, 5)
	g.Bind(as, false)
	n, _ := g.MaxDegreeNode()
	runKernel(t, NewBFS(g, n, as, 2), 2, lgInterval(t, "G500"))
}

func TestCCKernel(t *testing.T) {
	as := smallAS()
	g := graph.SmallWorld(600, 6, 4)
	g.Bind(as, false)
	runKernel(t, NewCC(g, as, 2), 2, lgInterval(t, "CC"))
}

func TestCCDisconnected(t *testing.T) {
	// Two separate cliques: labels must not leak across components.
	b := graph.NewBuilder(8, false)
	for i := int32(0); i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.AddUndirected(i, j)
			b.AddUndirected(i+4, j+4)
		}
	}
	g := b.Build("two-cliques")
	as := smallAS()
	g.Bind(as, false)
	k := NewCC(g, as, 1)
	runKernel(t, k, 1, lgInterval(t, "CC"))
	if k.Components()[0] != 0 || k.Components()[4] != 4 {
		t.Fatalf("components %v", k.Components())
	}
}

func TestPRKernel(t *testing.T) {
	as := smallAS()
	g := graph.PowerLawTalk(800, 6)
	g.Bind(as, false)
	runKernel(t, NewPR(g, as, 2), 2, lgInterval(t, "PR"))
}

func TestPRRankMass(t *testing.T) {
	as := smallAS()
	g := graph.UniformRandom(300, 4, 2)
	g.Bind(as, false)
	k := NewPR(g, as, 1)
	runKernel(t, k, 1, lgInterval(t, "PR"))
	// Every rank at least the teleport mass.
	for v := int32(0); v < int32(g.N); v++ {
		if k.Rank(v) < 1-PRDamping-1e-9 {
			t.Fatalf("rank[%d] = %v below teleport floor", v, k.Rank(v))
		}
	}
}

func TestTCKernel(t *testing.T) {
	as := smallAS()
	g := graph.CommunityDBLP(400, 7)
	g.Bind(as, true)
	k := NewTC(g, as, 2)
	runKernel(t, k, 2, lgInterval(t, "TC"))
	if k.Triangles() == 0 {
		t.Fatal("clique communities but zero triangles")
	}
}

func TestTCKnownCount(t *testing.T) {
	// K4 has exactly 4 triangles.
	b := graph.NewBuilder(4, false)
	for i := int32(0); i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.AddUndirected(i, j)
		}
	}
	g := b.Build("k4")
	as := smallAS()
	g.Bind(as, true)
	k := NewTC(g, as, 1)
	runKernel(t, k, 1, lgInterval(t, "TC"))
	if k.Triangles() != 4 {
		t.Fatalf("K4 triangles = %d, want 4", k.Triangles())
	}
}

func TestBCKernelBipartite(t *testing.T) {
	as := smallAS()
	g := graph.Bipartite(300, 150, 8)
	g.Bind(as, false)
	k := NewBC(g, as, 2)
	runKernel(t, k, 2, lgInterval(t, "BC"))
	if !k.Bipartite() {
		t.Fatal("bipartite input flagged as conflicting")
	}
}

func TestBCDetectsOddCycle(t *testing.T) {
	// A triangle is not 2-colorable.
	b := graph.NewBuilder(3, false)
	b.AddUndirected(0, 1)
	b.AddUndirected(1, 2)
	b.AddUndirected(2, 0)
	g := b.Build("triangle")
	as := smallAS()
	g.Bind(as, false)
	k := NewBC(g, as, 1)
	runKernel(t, k, 1, lgInterval(t, "BC"))
	if k.Bipartite() {
		t.Fatal("odd cycle not detected")
	}
}

func TestSuiteIsComplete(t *testing.T) {
	names := map[string]bool{}
	for _, s := range Suite() {
		names[s.Name] = true
	}
	for _, want := range []string{"SSSP", "BFS", "G500", "CC", "PR", "TC", "BC"} {
		if !names[want] {
			t.Fatalf("suite missing %s", want)
		}
	}
	if _, err := SpecByName("nonsense"); err == nil {
		t.Fatal("bogus name accepted")
	}
}

func TestSuiteBuildsDeterministically(t *testing.T) {
	for _, s := range Suite() {
		k1 := s.Build(1, 42, graph.NewAddrSpace(), 2)
		k2 := s.Build(1, 42, graph.NewAddrSpace(), 2)
		if k1.Graph().NumEdges() != k2.Graph().NumEdges() {
			t.Fatalf("%s builds nondeterministically", s.Name)
		}
	}
}

func TestTaskSplittingPreservesResults(t *testing.T) {
	// SSSP must verify with aggressive task splitting enabled.
	as := smallAS()
	g := graph.RoadMesh(400, 3)
	g.Bind(as, false)
	k := NewSSSP(g, 0, as, 2)
	threads := 2
	mcfg := mem.DefaultConfig(threads)
	mcfg.ScaleCaches(16)
	msys := mem.NewSystem(mcfg)
	cores := make([]*cpu.Core, threads)
	for i := range cores {
		cores[i] = cpu.New(i, cpu.DefaultConfig(), msys)
	}
	wl := worklist.NewOBIM(as, threads, 1, lgInterval(t, "SSSP"))
	r := galois.NewRunner(galois.Config{Threads: threads, SplitThreshold: 2}, cores, &galois.SWScheduler{WL: wl}, k, g.Degree)
	eng := sim.NewEngine()
	for _, w := range r.Workers() {
		id := eng.Register(w)
		eng.Wake(id, 0)
	}
	r.Seed(k.InitialTasks())
	if _, drained := eng.Run(500_000_000); !drained {
		t.Fatal("split run did not terminate")
	}
	if err := k.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestDijkstraReference(t *testing.T) {
	// Hand-checkable graph: 0 -> 1 (w5), 0 -> 2 (w1), 2 -> 1 (w2).
	b := graph.NewBuilder(3, true)
	b.AddWeighted(0, 1, 5)
	b.AddWeighted(0, 2, 1)
	b.AddWeighted(2, 1, 2)
	g := b.Build("tri")
	d := dijkstra(g, 0)
	if d[0] != 0 || d[1] != 3 || d[2] != 1 {
		t.Fatalf("dijkstra %v", d)
	}
	if d[1] >= math.MaxInt64/8 {
		t.Fatal("unreachable sentinel misused")
	}
}

func TestKCoreKernel(t *testing.T) {
	for _, seed := range []uint64{3, 11} {
		as := smallAS()
		g := graph.SmallWorld(500, 8, seed)
		g.Bind(as, false)
		runKernel(t, NewKCore(g, as, 2), 2, lgInterval(t, "KCORE"))
	}
}

func TestKCoreKnownValues(t *testing.T) {
	// A K4 attached to a path: the clique is a 3-core, the path tail 1-core.
	b := graph.NewBuilder(6, false)
	for i := int32(0); i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.AddUndirected(i, j)
		}
	}
	b.AddUndirected(3, 4)
	b.AddUndirected(4, 5)
	g := b.Build("k4-tail")
	as := smallAS()
	g.Bind(as, false)
	k := NewKCore(g, as, 1)
	runKernel(t, k, 1, lgInterval(t, "KCORE"))
	want := []int32{3, 3, 3, 3, 1, 1}
	for v, c := range k.Coreness() {
		if c != want[v] {
			t.Fatalf("coreness[%d] = %d, want %d (all: %v)", v, c, want[v], k.Coreness())
		}
	}
}

func TestHIndex(t *testing.T) {
	cases := []struct {
		vals []int32
		cap  int32
		want int32
	}{
		{[]int32{3, 3, 3}, 10, 3},
		{[]int32{1, 1, 1, 1}, 10, 1},
		{[]int32{5, 4, 3, 2, 1}, 10, 3},
		{[]int32{9, 9, 9}, 2, 2}, // capped by own estimate
		{nil, 5, 0},
		{[]int32{0, 0}, 5, 0},
	}
	for _, c := range cases {
		if got := hIndex(c.vals, c.cap); got != c.want {
			t.Errorf("hIndex(%v, %d) = %d, want %d", c.vals, c.cap, got, c.want)
		}
	}
}

func TestExtensionsRegistry(t *testing.T) {
	if _, err := SpecByName("KCORE"); err != nil {
		t.Fatal(err)
	}
	for _, s := range Extensions() {
		if k := s.Build(1, 1, graph.NewAddrSpace(), 1); k.Graph().N == 0 {
			t.Fatalf("extension %s built an empty input", s.Name)
		}
	}
}
