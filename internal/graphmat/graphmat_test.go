package graphmat_test

import (
	"testing"

	"minnow/internal/cpu"
	"minnow/internal/graph"
	"minnow/internal/graphmat"
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
	k := graphmat.NewSSSP(g, 0)
	r := graphmat.Runner{G: g, Cores: cores(4), Prog: k}
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
	k := graphmat.NewSSSP(g, 0)
	r := graphmat.Runner{G: g, Cores: cores(4), Prog: k}
	res := r.Run()
	if res.WorkItems < int64(g.N)*2 {
		t.Fatalf("BSP SSSP did only %d work items on %d nodes — suspiciously efficient", res.WorkItems, g.N)
	}
}

func TestBSPBFS(t *testing.T) {
	g := graph.UniformRandom(1000, 4, 5)
	as := graph.NewAddrSpace()
	g.Bind(as, false)
	k := graphmat.NewBFS(g, 0)
	r := graphmat.Runner{G: g, Cores: cores(4), Prog: k}
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
	k := graphmat.NewCC(g)
	r := graphmat.Runner{G: g, Cores: cores(2), Prog: k}
	r.Run()
	if err := k.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestBSPPR(t *testing.T) {
	g := graph.PowerLawTalk(600, 4)
	as := graph.NewAddrSpace()
	g.Bind(as, false)
	k := graphmat.NewPR(g, kernels.PRDamping, 1e-3)
	r := graphmat.Runner{G: g, Cores: cores(2), Prog: k}
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
	k := graphmat.NewGMatStar(g, 0, 13)
	r := graphmat.Runner{G: g, Cores: cores(4), Prog: k, Frontier: k.Frontier()}
	res := r.Run()
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

	un := graphmat.NewSSSP(g, 0)
	runner := graphmat.Runner{G: g, Cores: cores(4), Prog: un}
	unRes := runner.Run()

	star := graphmat.NewGMatStar(g, 0, 13)
	starRunner := graphmat.Runner{G: g, Cores: cores(4), Prog: star, Frontier: star.Frontier()}
	starRes := starRunner.Run()

	// GMat* must be more work-efficient than unordered BSP (§3.1: "2x
	// improvement over their unordered implementation").
	if starRes.WorkItems >= unRes.WorkItems {
		t.Fatalf("GMat* work %d not below unordered %d", starRes.WorkItems, unRes.WorkItems)
	}
}

// TestBSPResultsPinned pins what the unordered and the bucketed frontier
// each make of SSSP on the same road mesh: one BSP loop serves both, so
// a change to either policy, or to the loop, shows here first.
func TestBSPResultsPinned(t *testing.T) {
	g := graph.RoadMesh(900, 3)
	g.Bind(graph.NewAddrSpace(), false)
	un := graphmat.Runner{G: g, Cores: cores(4), Prog: graphmat.NewSSSP(g, 0)}
	star := graphmat.NewGMatStar(g, 0, 13)
	bucketed := graphmat.Runner{G: g, Cores: cores(4), Prog: star, Frontier: star.Frontier()}
	for _, c := range []struct {
		name string
		r    graphmat.Runner
		want graphmat.Result
	}{
		{"unordered", un, graphmat.Result{Iterations: 58, WorkItems: 2419, Wall: 201265}},
		{"gmat*", bucketed, graphmat.Result{Iterations: 56, WorkItems: 1419, Wall: 5751617}},
	} {
		if got := c.r.Run(); got != c.want {
			t.Errorf("%s: got %+v, want %+v", c.name, got, c.want)
		}
	}
}

// TestVerifyRejectsWrongAnswers pins that the programs check the answer,
// not a fixpoint property: all-zero distances relax no edge and
// all-equal labels agree along every edge, yet both are wrong.
func TestVerifyRejectsWrongAnswers(t *testing.T) {
	road := graph.RoadMesh(100, 3)
	sssp := graphmat.NewSSSP(road, 0)
	star := graphmat.NewGMatStar(road, 0, 13)
	clear(sssp.Dist)
	clear(star.Dist)
	b := graph.NewBuilder(4, false)
	b.AddUndirected(0, 1)
	b.AddUndirected(2, 3)
	cc := graphmat.NewCC(b.Build("two-pairs"))
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
	k := graphmat.NewSSSP(g, 0)
	r := graphmat.Runner{G: g, Cores: cores(2), Prog: k, Budget: 50}
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
		k := graphmat.NewSSSP(g, 0)
		r := graphmat.Runner{G: g, Cores: cs, Prog: k}
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
	k := graphmat.NewBFS(g, 0)
	r := graphmat.Runner{G: g, Cores: cs, Prog: k}
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
