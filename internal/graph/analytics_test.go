package graph

import (
	"math"
	"testing"
)

func TestDegreeStats(t *testing.T) {
	b := NewBuilder(5, false)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(0, 3)
	b.AddEdge(1, 0)
	// nodes 2,3,4 have out-degree 0
	g := b.Build("deg")
	st := g.Degrees()
	if st.Min != 0 || st.Max != 3 || st.Isolated != 3 {
		t.Fatalf("stats %+v", st)
	}
	if math.Abs(st.Mean-0.8) > 1e-12 {
		t.Fatalf("mean %v", st.Mean)
	}
	if st.P50 != 0 || st.P99 != 3 {
		t.Fatalf("percentiles %+v", st)
	}
}

func TestDegreePercentilesNearestRank(t *testing.T) {
	// Ten nodes, five of out-degree 0 and five of out-degree 1. p50 is the
	// 5th smallest degree, 0; the rule "first degree whose count passes
	// p·N" gave the 6th, 1.
	b := NewBuilder(10, false)
	for v := int32(0); v < 5; v++ {
		b.AddEdge(v, (v+1)%5)
	}
	st := b.Build("half").Degrees()
	if st.P50 != 0 || st.P90 != 1 || st.P99 != 1 || st.Isolated != 5 {
		t.Fatalf("stats %+v, want P50 0, P90 1, P99 1, 5 isolated", st)
	}
}

func TestComponents(t *testing.T) {
	b := NewBuilder(6, false)
	b.AddUndirected(0, 1)
	b.AddUndirected(1, 2)
	b.AddUndirected(3, 4)
	// node 5 isolated
	g := b.Build("comp")
	labels, count := g.Components()
	if count != 3 {
		t.Fatalf("components %d, want 3", count)
	}
	if labels[0] != labels[2] || labels[3] != labels[4] || labels[0] == labels[3] || labels[5] == labels[0] {
		t.Fatalf("labels %v", labels)
	}
}

func TestClusteringCoefficient(t *testing.T) {
	// A triangle: every wedge is closed -> coefficient 1.
	b := NewBuilder(3, false)
	b.AddUndirected(0, 1)
	b.AddUndirected(1, 2)
	b.AddUndirected(2, 0)
	g := b.Build("tri")
	if c := g.ClusteringCoefficient(); math.Abs(c-1) > 1e-12 {
		t.Fatalf("triangle clustering %v, want 1", c)
	}
	// A star: no closed wedges.
	b2 := NewBuilder(4, false)
	b2.AddUndirected(0, 1)
	b2.AddUndirected(0, 2)
	b2.AddUndirected(0, 3)
	g2 := b2.Build("star")
	if c := g2.ClusteringCoefficient(); c != 0 {
		t.Fatalf("star clustering %v, want 0", c)
	}
}

func TestClusteringByGraphClass(t *testing.T) {
	// Clique communities must cluster far more than uniform random.
	dblp := CommunityDBLP(600, 1)
	rnd := UniformRandom(600, 6, 1)
	cd, cr := dblp.ClusteringCoefficient(), rnd.ClusteringCoefficient()
	if cd < 5*cr {
		t.Fatalf("dblp clustering %v not well above random %v", cd, cr)
	}
}

func TestComponentsMatchUnionFindKernel(t *testing.T) {
	g := SmallWorld(500, 6, 2)
	labels, count := g.Components()
	// Count distinct labels and verify agreement along every edge.
	distinct := map[int32]bool{}
	for _, l := range labels {
		distinct[l] = true
	}
	if len(distinct) != count {
		t.Fatalf("label count %d vs components %d", len(distinct), count)
	}
	for u := int32(0); u < int32(g.N); u++ {
		lo, hi := g.EdgeRange(u)
		for e := lo; e < hi; e++ {
			if labels[u] != labels[g.Dests[e]] {
				t.Fatalf("edge %d-%d crosses components", u, g.Dests[e])
			}
		}
	}
}
