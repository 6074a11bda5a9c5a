package minnow

import (
	"bytes"
	"testing"

	"minnow/internal/kernels"
)

func TestRunGraphOnGenerated(t *testing.T) {
	g := NewRoadMesh(900, 5)
	res, err := RunGraph("SSSP", g, 0, Config{Threads: 2, Minnow: true, Prefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tasks == 0 || res.WallCycles == 0 {
		t.Fatalf("empty run %+v", res)
	}
}

func TestRunGraphEveryKernel(t *testing.T) {
	cases := map[string]*Graph{
		"SSSP": NewRoadMesh(400, 1),
		"BFS":  NewUniformRandom(400, 4, 1),
		"G500": NewKronecker(8, 8, 1),
		"CC":   NewSmallWorld(400, 6, 1),
		"PR":   NewPowerLawTalk(400, 1),
		"TC":   NewCommunityGraph(200, 1),
		"BC":   NewBipartite(200, 100, 1),
	}
	for bench, g := range cases {
		if _, err := RunGraph(bench, g, 0, Config{Threads: 2}); err != nil {
			t.Fatalf("%s: %v", bench, err)
		}
	}
}

// TestRunGraphMatchesRun proves both entry points build the same kernel
// from the catalogue: RunGraph on an entry's own input and source must
// reproduce Run's summary hash for every benchmark.
func TestRunGraphMatchesRun(t *testing.T) {
	cfg := Config{Threads: 2, Minnow: true, Prefetch: true, Scale: 1, Seed: 42}
	for _, spec := range append(kernels.Suite(), kernels.Extensions()...) {
		t.Run(spec.Name, func(t *testing.T) {
			want, err := Run(spec.Name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			g := spec.Input(cfg.Scale, cfg.Seed)
			got, err := RunGraph(spec.Name, &Graph{g: g}, spec.SourceNode(g), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.SummaryHash != want.SummaryHash {
				t.Errorf("RunGraph hash %s, Run hash %s", got.SummaryHash, want.SummaryHash)
			}
		})
	}
}

func TestRunGraphValidation(t *testing.T) {
	if _, err := RunGraph("SSSP", nil, 0, Config{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	unweighted := NewUniformRandom(100, 4, 1)
	if _, err := RunGraph("SSSP", unweighted, 0, Config{Threads: 1}); err == nil {
		t.Fatal("unweighted SSSP accepted")
	}
	if _, err := RunGraph("BFS", unweighted, 9999, Config{Threads: 1}); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	if _, err := RunGraph("NOPE", unweighted, 0, Config{Threads: 1}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestNewGraphFromEdges(t *testing.T) {
	g, err := NewGraphFromEdges("tiny", 3, []Edge{
		{From: 0, To: 1, Weight: 4},
		{From: 1, To: 0, Weight: 4},
		{From: 1, To: 2, Weight: 2},
		{From: 2, To: 1, Weight: 2},
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 4 || !g.Weighted() {
		t.Fatalf("shape %d/%d weighted=%v", g.NumNodes(), g.NumEdges(), g.Weighted())
	}
	if _, err := RunGraph("SSSP", g, 0, Config{Threads: 1}); err != nil {
		t.Fatal(err)
	}
	// Bad inputs.
	if _, err := NewGraphFromEdges("bad", 0, nil, false); err == nil {
		t.Fatal("zero nodes accepted")
	}
	if _, err := NewGraphFromEdges("bad", 2, []Edge{{From: 0, To: 5}}, false); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
}

func TestGraphSaveLoadPublic(t *testing.T) {
	g := NewCommunityGraph(150, 2)
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() || g2.Name() != g.Name() {
		t.Fatal("round trip mismatch")
	}
	if _, err := RunGraph("TC", g2, 0, Config{Threads: 2}); err != nil {
		t.Fatal(err)
	}
}

func TestRunGraphCustomPrefetch(t *testing.T) {
	g := NewCommunityGraph(200, 3)
	calls := 0
	f := func(tk Task, v GraphView, emit func(addrs ...uint64)) {
		calls++
		emit(v.NodeAddr(tk.Node))
	}
	res, err := RunGraph("TC", g, 0, Config{Threads: 2, Minnow: true, Prefetch: true, CustomPrefetch: f})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 || res.EnginePrefetches == 0 {
		t.Fatalf("custom prefetch unused: calls=%d pf=%d", calls, res.EnginePrefetches)
	}
}
