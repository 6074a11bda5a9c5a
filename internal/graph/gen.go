package graph

import (
	"fmt"

	"minnow/internal/rng"
)

// The seven generators below produce synthetic stand-ins for the paper's
// Table-1 inputs. Absolute sizes are scaled down (callers pass n); each
// generator preserves the property that drives its benchmark's behaviour:
//
//	RoadMesh        USA-road-d.W       high diameter, degree ~4, weighted
//	UniformRandom   r4-2e23            uniform degree 4, low diameter
//	Kronecker       rmat16-2e22        power law with one giant hub
//	SmallWorld      wikipedia-20051105 low diameter, moderate hubs
//	PowerLawTalk    wiki-Talk          extreme skew, many leaves
//	CommunityDBLP   com-dblp-sym       clique communities (triangle-rich)
//	Bipartite       amazon-ratings     two-sided, 2-colorable
//

// RoadMesh generates a weighted road-network-like mesh: a √n x √n grid
// with 4-neighbor links, a few random diagonal shortcuts, and uniform
// random weights in [1, maxW]. Diameter grows as √n, the property that
// makes SSSP priority-ordering-sensitive (§3.1).
func RoadMesh(n int, seed uint64) *Graph {
	r := rng.New(seed)
	side := 1
	for side*side < n {
		side++
	}
	n = side * side
	b := NewBuilder(n, true)
	b.reserve(4*n + n/10) // 4-neighbour links plus 1-in-20 diagonals, both ways
	const maxW = 1000
	id := func(x, y int) int32 { return int32(y*side + x) }
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			if x+1 < side {
				b.AddUndirectedWeighted(id(x, y), id(x+1, y), int32(1+r.Intn(maxW)))
			}
			if y+1 < side {
				b.AddUndirectedWeighted(id(x, y), id(x, y+1), int32(1+r.Intn(maxW)))
			}
			// Sparse diagonal shortcuts mimic highway links.
			if x+1 < side && y+1 < side && r.Intn(20) == 0 {
				b.AddUndirectedWeighted(id(x, y), id(x+1, y+1), int32(1+r.Intn(maxW)))
			}
		}
	}
	return b.Build(fmt.Sprintf("road-mesh-%d", n))
}

// UniformRandom generates an r4-like uniform random graph: every node
// draws avgDeg undirected neighbors uniformly at random.
func UniformRandom(n, avgDeg int, seed uint64) *Graph {
	r := rng.New(seed)
	b := NewBuilder(n, false)
	half := avgDeg / 2
	if half < 1 {
		half = 1
	}
	b.reserve(2 * n * half)
	for v := 0; v < n; v++ {
		for k := 0; k < half; k++ {
			d := int32(r.Intn(n))
			if d != int32(v) {
				b.AddUndirected(int32(v), d)
			}
		}
	}
	return b.Build(fmt.Sprintf("r%d-%d", avgDeg, n))
}

// Kronecker generates an R-MAT/Graph500-style graph of 2^scale nodes and
// edgeFactor*2^scale undirected edges with the Graph500 initiator
// (A,B,C,D) = (0.57, 0.19, 0.19, 0.05). The recursive skew concentrates a
// large fraction of all edges on node 0 — the giant hub (18.4M edges, 27%
// of the graph, in the paper's rmat16-2e22) that motivates task splitting
// (§6.2.1).
func Kronecker(scale, edgeFactor int, seed uint64) *Graph {
	r := rng.New(seed)
	n := 1 << scale
	m := n * edgeFactor
	b := NewBuilder(n, false)
	b.reserve(2 * m)
	const (
		a  = 0.57
		bb = 0.19
		c  = 0.19
	)
	for i := 0; i < m; i++ {
		var src, dst int32
		for bit := 0; bit < scale; bit++ {
			p := r.Float64()
			switch {
			case p < a:
				// both high quadrant: no bits set
			case p < a+bb:
				dst |= 1 << bit
			case p < a+bb+c:
				src |= 1 << bit
			default:
				src |= 1 << bit
				dst |= 1 << bit
			}
		}
		if src != dst {
			b.AddUndirected(src, dst)
		}
	}
	return b.Build(fmt.Sprintf("kron%d-e%d", scale, edgeFactor))
}

// SmallWorld generates a Watts-Strogatz-style wikipedia-like graph: a ring
// lattice of degree k with probability rewireP of each edge rewiring to a
// random node, plus a handful of hub nodes with boosted degree.
func SmallWorld(n, k int, seed uint64) *Graph {
	r := rng.New(seed)
	b := NewBuilder(n, false)
	b.reserve(2 * (n*(k/2) + (n/200+1)*(isqrt(n)/2)))
	const rewireP = 0.2
	for v := 0; v < n; v++ {
		for j := 1; j <= k/2; j++ {
			d := int32((v + j) % n)
			if r.Float64() < rewireP {
				d = int32(r.Intn(n))
			}
			if d != int32(v) {
				b.AddUndirected(int32(v), d)
			}
		}
	}
	// A few percent of nodes become hubs with degree ~ sqrt(n)/2,
	// approximating the wikipedia degree tail (largest node 4,970 on
	// 1.6M nodes ≈ 0.3% of n).
	hubs := n / 200
	if hubs < 1 {
		hubs = 1
	}
	hubDeg := isqrt(n) / 2
	for h := 0; h < hubs; h++ {
		hv := int32(r.Intn(n))
		for j := 0; j < hubDeg; j++ {
			d := int32(r.Intn(n))
			if d != hv {
				b.AddUndirected(hv, d)
			}
		}
	}
	return b.Build(fmt.Sprintf("smallworld-%d", n))
}

// PowerLawTalk generates a wiki-Talk-like directed graph: a tiny core of
// extremely high-out-degree nodes (admins posting to many talk pages), a
// heavy-tailed middle, and a majority of near-leaf nodes. Average degree
// ~2, largest node degree ~4% of n.
func PowerLawTalk(n int, seed uint64) *Graph {
	r := rng.New(seed)
	b := NewBuilder(n, false)
	core := n / 250
	if core < 4 {
		core = 4
	}
	// Superhubs, the middle's mean degree 2+3 with headroom, and a third
	// of the leaves.
	b.reserve(core*(n/25) + 6*(n/10) + n/3)
	for v := 0; v < n; v++ {
		var deg int
		switch {
		case v < core:
			deg = n / 25 // superhubs
		case v < n/10:
			deg = 2 + r.Geometric(0.25)
		default:
			if r.Intn(3) > 0 {
				continue // most nodes post nowhere
			}
			deg = 1
		}
		for j := 0; j < deg; j++ {
			d := int32(r.Intn(n))
			if d != int32(v) {
				b.AddEdge(int32(v), d)
			}
		}
	}
	return b.Build(fmt.Sprintf("talk-%d", n))
}

// CommunityDBLP generates a com-dblp-like co-authorship graph: cliques of
// 3-8 nodes (papers' author sets) chained by shared members, yielding the
// triangle-rich, moderate-degree structure Triangle Counting needs.
func CommunityDBLP(n int, seed uint64) *Graph {
	r := rng.New(seed)
	b := NewBuilder(n, false)
	b.reserve(6 * n) // a node's clique has 5 other members on average, plus the back links
	v := 0
	for v < n {
		size := 3 + r.Intn(6)
		if v+size > n {
			size = n - v
		}
		// Fully connect the community.
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				b.AddUndirected(int32(v+i), int32(v+j))
			}
		}
		// Link back to a random earlier node (collaboration across
		// communities) so the graph is mostly connected.
		if v > 0 {
			b.AddUndirected(int32(v), int32(r.Intn(v)))
		}
		v += size
	}
	return b.Build(fmt.Sprintf("dblp-%d", n))
}

// Bipartite generates an amazon-ratings-like bipartite user-item graph
// with power-law item popularity. Bipartite graphs are exactly the inputs
// Bipartite Coloring succeeds on.
func Bipartite(users, items int, seed uint64) *Graph {
	r := rng.New(seed)
	n := users + items
	b := NewBuilder(n, false)
	b.reserve(6 * users) // 1 + 1.86 ratings per user on average, both ways
	for u := 0; u < users; u++ {
		ratings := 1 + r.Geometric(0.35)
		for j := 0; j < ratings; j++ {
			// Popularity skew: square the uniform draw toward item 0.
			f := r.Float64()
			it := int(f * f * float64(items))
			if it >= items {
				it = items - 1
			}
			b.AddUndirected(int32(u), int32(users+it))
		}
	}
	return b.Build(fmt.Sprintf("bipartite-%du-%di", users, items))
}

func isqrt(n int) int {
	s := 0
	for s*s < n {
		s++
	}
	return s
}
