package graph

import (
	"math"
	"math/rand/v2"
	"testing"
)

// randomGraph builds a small weighted graph whose edges join a random
// three quarters of the nodes, so the rest are isolated.
func randomGraph(r *rand.Rand, n int, undirected bool) *Graph {
	var live []int32
	for v := 0; v < n; v++ {
		if r.IntN(4) != 0 {
			live = append(live, int32(v))
		}
	}
	b := NewBuilder(n, true)
	m := r.IntN(3*n + 1)
	for i := 0; len(live) > 0 && i < m; i++ {
		s, d, w := live[r.IntN(len(live))], live[r.IntN(len(live))], int32(1+r.IntN(9))
		if undirected {
			b.AddUndirectedWeighted(s, d, w)
		} else {
			b.AddWeighted(s, d, w)
		}
	}
	return b.Build("random")
}

// forRandomGraphs calls check on 200 small random graphs, half of them
// directed.
func forRandomGraphs(t *testing.T, check func(t *testing.T, g *Graph)) {
	r := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 200; i++ {
		g := randomGraph(r, 1+r.IntN(30), i%2 == 0)
		check(t, g)
		if t.Failed() {
			t.Fatalf("graph %d: N=%d offsets=%v dests=%v", i, g.N, g.Offsets, g.Dests)
		}
	}
}

func TestDijkstraReference(t *testing.T) {
	// Hand-checkable graph: 0 -> 1 (w5), 0 -> 2 (w1), 2 -> 1 (w2).
	b := NewBuilder(3, true)
	b.AddWeighted(0, 1, 5)
	b.AddWeighted(0, 2, 1)
	b.AddWeighted(2, 1, 2)
	g := b.Build("tri")
	d := g.ShortestPaths(0)
	if d[0] != 0 || d[1] != 3 || d[2] != 1 {
		t.Fatalf("dijkstra %v", d)
	}
	if d[1] >= math.MaxInt64/8 {
		t.Fatal("unreachable sentinel misused")
	}
}

func TestShortestPathsMatchBellmanFord(t *testing.T) {
	forRandomGraphs(t, func(t *testing.T, g *Graph) {
		for src := int32(0); src < int32(g.N); src++ {
			want := make([]int64, g.N)
			for i := range want {
				want[i] = math.MaxInt64 / 4
			}
			want[src] = 0
			for round := 1; round < g.N; round++ {
				for u := int32(0); u < int32(g.N); u++ {
					lo, hi := g.EdgeRange(u)
					for e := lo; e < hi; e++ {
						if want[u] < math.MaxInt64/4 {
							v := g.Dests[e]
							want[v] = min(want[v], want[u]+int64(g.Weights[e]))
						}
					}
				}
			}
			for v, d := range g.ShortestPaths(src) {
				if d != want[v] {
					t.Errorf("src %d: dist[%d] = %d, Bellman-Ford says %d", src, v, d, want[v])
				}
			}
		}
	})
}

func TestComponentsMatchLabelFlooding(t *testing.T) {
	forRandomGraphs(t, func(t *testing.T, g *Graph) {
		// Flood the minimum label both ways along every edge until
		// nothing changes.
		want := make([]int32, g.N)
		for i := range want {
			want[i] = int32(i)
		}
		for changed := true; changed; {
			changed = false
			for u := int32(0); u < int32(g.N); u++ {
				lo, hi := g.EdgeRange(u)
				for _, v := range g.Dests[lo:hi] {
					if m := min(want[u], want[v]); want[u] != m || want[v] != m {
						want[u], want[v], changed = m, m, true
					}
				}
			}
		}
		wantCount := 0
		for v, l := range want {
			if l == int32(v) {
				wantCount++
			}
		}
		labels, count := g.Components()
		if count != wantCount {
			t.Errorf("count %d, flooding says %d", count, wantCount)
		}
		for v := range want {
			if labels[v] != want[v] {
				t.Errorf("label[%d] = %d, flooding says %d", v, labels[v], want[v])
			}
		}
	})
}

func TestComponentsIgnoreEdgeDirection(t *testing.T) {
	b := NewBuilder(3, false)
	b.AddEdge(2, 1)
	b.AddEdge(1, 0)
	labels, count := b.Build("chain").Components()
	if count != 1 || labels[0] != 0 || labels[1] != 0 || labels[2] != 0 {
		t.Fatalf("chain 2->1->0: labels %v, count %d; want one component labelled 0", labels, count)
	}
}

func TestTrianglesMatchTripleLoop(t *testing.T) {
	forRandomGraphs(t, func(t *testing.T, g *Graph) {
		has := make(map[[2]int32]bool)
		for u := int32(0); u < int32(g.N); u++ {
			lo, hi := g.EdgeRange(u)
			for _, v := range g.Dests[lo:hi] {
				has[[2]int32{u, v}] = true
			}
		}
		var want int64
		for u := int32(0); u < int32(g.N); u++ {
			for v := u + 1; v < int32(g.N); v++ {
				for w := v + 1; w < int32(g.N); w++ {
					if has[[2]int32{u, v}] && has[[2]int32{u, w}] && has[[2]int32{v, w}] {
						want++
					}
				}
			}
		}
		if got := g.Triangles(); got != want {
			t.Errorf("triangles %d, triple loop says %d", got, want)
		}
	})
}

func TestPageRankWithinDocumentedBound(t *testing.T) {
	// 0 <-> 1 and 2 -> 0: rank2 = 1-d, rank1 = (1-d) + d·rank0 and
	// rank0 = (1-d) + d·(rank1 + rank2).
	b := NewBuilder(3, false)
	b.AddUndirected(0, 1)
	b.AddEdge(2, 0)
	const d, tol = 0.85, 1e-6
	r2 := 1 - d
	r0 := (1 - d + d*(1-d) + d*r2) / (1 - d*d)
	r1 := 1 - d + d*r0
	got := b.Build("pr").PageRank(d, tol)
	for v, want := range []float64{r0, r1, r2} {
		if math.Abs(got[v]-want) > tol*d/(1-d) {
			t.Errorf("rank[%d] = %.9f, want %.9f (±%g)", v, got[v], want, tol*d/(1-d))
		}
	}
}
