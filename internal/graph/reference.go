package graph

import (
	"container/heap"
	"math"
)

// Reference answers. Every Galois kernel (internal/kernels) and every
// GraphMat/GMat* program (internal/graphmat) checks its converged state
// against one of these, so each algorithm has exactly one oracle. They
// read the CSR only, run on the host, and are never simulated.

// ShortestPaths returns the shortest-path distance from src to every
// node by Dijkstra's algorithm over the edge weights; unreachable nodes
// read math.MaxInt64/4, the initial distance of the SSSP kernels.
func (g *Graph) ShortestPaths(src int32) []int64 {
	dist := make([]int64, g.N)
	for i := range dist {
		dist[i] = math.MaxInt64 / 4
	}
	dist[src] = 0
	pq := &distHeap{{src, 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(distItem)
		if it.d > dist[it.v] {
			continue
		}
		lo, hi := g.EdgeRange(it.v)
		for e := lo; e < hi; e++ {
			v := g.Dests[e]
			nd := it.d + int64(g.Weights[e])
			if nd < dist[v] {
				dist[v] = nd
				heap.Push(pq, distItem{v, nd})
			}
		}
	}
	return dist
}

type distItem struct {
	v int32
	d int64
}

// distHeap is ShortestPaths' min-heap of tentative distances, ordered by
// d through container/heap.
type distHeap []distItem

// Len implements heap.Interface.
func (h distHeap) Len() int { return len(h) }

// Less implements heap.Interface: the shorter distance pops first.
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }

// Swap implements heap.Interface.
func (h distHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

// Push implements heap.Interface.
func (h *distHeap) Push(x any) { *h = append(*h, x.(distItem)) }

// Pop implements heap.Interface: it removes the last element, which
// container/heap has just swapped into place.
func (h *distHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// PageRank solves rank[v] = (1-d) + d·Σ_{u→v} rank[u]/deg(u) by Jacobi
// iteration from rank = 1-d, stopping after the first sweep that moves
// the vector by less than tol in L1 norm (or after 500 sweeps). A sweep
// contracts the L1 distance to the fixpoint by d, so the answer lies
// within tol·d/(1-d) of it at every node.
func (g *Graph) PageRank(d, tol float64) []float64 {
	rank := make([]float64, g.N)
	next := make([]float64, g.N)
	for i := range rank {
		rank[i] = 1 - d
	}
	for iter := 0; iter < 500; iter++ {
		for i := range next {
			next[i] = 1 - d
		}
		for u := int32(0); u < int32(g.N); u++ {
			deg := g.Degree(u)
			if deg == 0 {
				continue
			}
			share := d * rank[u] / float64(deg)
			lo, hi := g.EdgeRange(u)
			for e := lo; e < hi; e++ {
				next[g.Dests[e]] += share
			}
		}
		var delta float64
		for i := range rank {
			delta += math.Abs(next[i] - rank[i])
		}
		rank, next = next, rank
		if delta < tol {
			break
		}
	}
	return rank
}

// Components labels each node with the minimum node ID of its weakly
// connected component (every edge taken as undirected) and returns the
// labels and the component count. It is a union-find in which the
// smaller root wins every union, so a root is its component's minimum
// and every parent is at most its child.
func (g *Graph) Components() (labels []int32, count int) {
	labels = make([]int32, g.N)
	for i := range labels {
		labels[i] = int32(i)
	}
	find := func(x int32) int32 {
		for labels[x] != x {
			labels[x] = labels[labels[x]] // path halving
			x = labels[x]
		}
		return x
	}
	for u := int32(0); u < int32(g.N); u++ {
		lo, hi := g.EdgeRange(u)
		for _, v := range g.Dests[lo:hi] {
			a, b := find(u), find(v)
			if a > b {
				a, b = b, a
			}
			labels[b] = a
		}
	}
	// Parents precede children, so one ascending pass points every node
	// at its root.
	for v, p := range labels {
		labels[v] = labels[p]
		if labels[v] == int32(v) {
			count++
		}
	}
	return labels, count
}

// Triangles counts the node triples u < v < w with edges u→v, u→w and
// v→w — on an undirected graph, each triangle once — by merging u's
// adjacency list past v with v's. It relies on the sorted, repeat-free
// rows Build makes.
func (g *Graph) Triangles() int64 {
	var n int64
	for u := int32(0); u < int32(g.N); u++ {
		lo, hi := g.EdgeRange(u)
		for i := lo; i < hi; i++ {
			v := g.Dests[i]
			if v <= u {
				continue
			}
			a, b, bhi := i+1, g.Offsets[v], g.Offsets[v+1]
			for a < hi && b < bhi {
				switch da, db := g.Dests[a], g.Dests[b]; {
				case da == db:
					n++
					a++
					b++
				case da < db:
					a++
				default:
					b++
				}
			}
		}
	}
	return n
}
