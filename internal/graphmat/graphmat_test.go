package graphmat

import (
	"testing"

	"minnow/internal/cpu"
	"minnow/internal/graph"
	"minnow/internal/kernels"
	"minnow/internal/mem"
)

func cores(n int) []*cpu.Core {
	cfg := mem.DefaultConfig(n)
	cfg.ScaleCaches(16)
	msys := mem.NewSystem(cfg)
	out := make([]*cpu.Core, n)
	for i := range out {
		out[i] = cpu.New(i, cpu.DefaultConfig(), msys)
	}
	return out
}

func TestBSPSSSPConverges(t *testing.T) {
	g := graph.RoadMesh(900, 3)
	as := graph.NewAddrSpace()
	g.Bind(as, false)
	k := NewSSSP(g, 0)
	r := Runner{G: g, Cores: cores(4), Prog: k}
	res := r.Run()
	if res.TimedOut || res.Iterations == 0 {
		t.Fatalf("bad result %+v", res)
	}
	if err := k.Verify(); err != nil {
		t.Fatal(err)
	}
	if res.Wall == 0 {
		t.Fatal("no simulated time elapsed")
	}
}

func TestBSPIsWorkInefficientOnRoads(t *testing.T) {
	// Bellman-Ford-style BSP on a high-diameter graph must do far more
	// relaxations than nodes (the §3.1 work-efficiency story).
	g := graph.RoadMesh(900, 3)
	as := graph.NewAddrSpace()
	g.Bind(as, false)
	k := NewSSSP(g, 0)
	r := Runner{G: g, Cores: cores(4), Prog: k}
	res := r.Run()
	if res.WorkItems < int64(g.N)*2 {
		t.Fatalf("BSP SSSP did only %d work items on %d nodes — suspiciously efficient", res.WorkItems, g.N)
	}
}

func TestBSPBFS(t *testing.T) {
	g := graph.UniformRandom(1000, 4, 5)
	as := graph.NewAddrSpace()
	g.Bind(as, false)
	k := NewBFS(g, 0)
	r := Runner{G: g, Cores: cores(4), Prog: k}
	res := r.Run()
	if err := k.Verify(); err != nil {
		t.Fatal(err)
	}
	// Level-synchronous BFS: iterations ≈ eccentricity (small here).
	if res.Iterations > 30 {
		t.Fatalf("BFS took %d iterations", res.Iterations)
	}
}

func TestBSPCC(t *testing.T) {
	g := graph.SmallWorld(800, 6, 2)
	as := graph.NewAddrSpace()
	g.Bind(as, false)
	k := NewCC(g)
	r := Runner{G: g, Cores: cores(2), Prog: k}
	r.Run()
	if err := k.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestBSPPR(t *testing.T) {
	g := graph.PowerLawTalk(600, 4)
	as := graph.NewAddrSpace()
	g.Bind(as, false)
	k := NewPR(g, kernels.PRDamping, 1e-3)
	r := Runner{G: g, Cores: cores(2), Prog: k}
	res := r.Run()
	if err := k.Verify(); err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 2 {
		t.Fatalf("PR converged suspiciously fast (%d iterations)", res.Iterations)
	}
}

func TestGMatStar(t *testing.T) {
	g := graph.RoadMesh(900, 3)
	as := graph.NewAddrSpace()
	g.Bind(as, false)
	k := NewGMatStar(g, 0, 13)
	res := k.Run(cores(4), 0)
	if err := k.Verify(); err != nil {
		t.Fatal(err)
	}
	if res.WorkItems == 0 {
		t.Fatal("no work executed")
	}
}

func TestGMatStarBeatsUnorderedOnRoads(t *testing.T) {
	g := graph.RoadMesh(1600, 3)
	as := graph.NewAddrSpace()
	g.Bind(as, false)

	un := NewSSSP(g, 0)
	runner := Runner{G: g, Cores: cores(4), Prog: un}
	unRes := runner.Run()

	star := NewGMatStar(g, 0, 13)
	starRes := star.Run(cores(4), 0)

	// GMat* must be more work-efficient than unordered BSP (§3.1: "2x
	// improvement over their unordered implementation").
	if starRes.WorkItems >= unRes.WorkItems {
		t.Fatalf("GMat* work %d not below unordered %d", starRes.WorkItems, unRes.WorkItems)
	}
}

// TestVerifyRejectsWrongAnswers pins that the programs check the answer,
// not a fixpoint property: all-zero distances relax no edge and
// all-equal labels agree along every edge, yet both are wrong.
func TestVerifyRejectsWrongAnswers(t *testing.T) {
	road := graph.RoadMesh(100, 3)
	sssp := NewSSSP(road, 0)
	star := NewGMatStar(road, 0, 13)
	clear(sssp.Dist)
	clear(star.Dist)
	b := graph.NewBuilder(4, false)
	b.AddUndirected(0, 1)
	b.AddUndirected(2, 3)
	cc := NewCC(b.Build("two-pairs"))
	clear(cc.Comp)
	for name, verify := range map[string]func() error{"sssp": sssp.Verify, "gmat*": star.Verify, "cc": cc.Verify} {
		if err := verify(); err == nil {
			t.Errorf("%s accepted an all-zero answer", name)
		}
	}
}

func TestBudgetTimeout(t *testing.T) {
	g := graph.RoadMesh(900, 3)
	as := graph.NewAddrSpace()
	g.Bind(as, false)
	k := NewSSSP(g, 0)
	r := Runner{G: g, Cores: cores(2), Prog: k, Budget: 50}
	res := r.Run()
	if !res.TimedOut {
		t.Fatal("budget did not trip")
	}
}

func TestDensePhaseChargesEveryIteration(t *testing.T) {
	// The per-iteration dense vector pass is the §3.1 reason BSP loses
	// on high-diameter inputs: per-iteration cost must scale with N even
	// when the frontier is one node.
	small := graph.RoadMesh(100, 1)
	big := graph.RoadMesh(6400, 1)
	for _, g := range []*graph.Graph{small, big} {
		as := graph.NewAddrSpace()
		g.Bind(as, false)
	}
	run := func(g *graph.Graph) int64 {
		cs := cores(1)
		k := NewSSSP(g, 0)
		r := Runner{G: g, Cores: cs, Prog: k}
		res := r.Run()
		return int64(res.Wall) / int64(res.Iterations)
	}
	if run(big) < 4*run(small) {
		t.Fatal("per-iteration cost does not scale with N")
	}
}

func TestBarrierSynchronizesCores(t *testing.T) {
	g := graph.UniformRandom(500, 4, 7)
	as := graph.NewAddrSpace()
	g.Bind(as, false)
	cs := cores(4)
	k := NewBFS(g, 0)
	r := Runner{G: g, Cores: cs, Prog: k}
	r.Run()
	// After the run every core's clock is within one barrier of the max.
	var maxT, minT int64 = 0, 1 << 62
	for _, c := range cs {
		if int64(c.Now()) > maxT {
			maxT = int64(c.Now())
		}
		if int64(c.Now()) < minT {
			minT = int64(c.Now())
		}
	}
	if maxT-minT > 64 {
		t.Fatalf("cores desynchronized after barrier: %d..%d", minT, maxT)
	}
}
