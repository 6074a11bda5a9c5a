package kernels

import (
	"container/heap"
	"fmt"
	"math"

	"minnow/internal/galois"
	"minnow/internal/graph"
	"minnow/internal/worklist"
)

// SSSP is non-blocking delta-stepping single-source shortest path (Fig. 1
// pseudocode): tasks relax one node's edges; improved destinations are
// re-enqueued with priority = new distance, which OBIM discretizes into
// delta buckets. The same operator is Dijkstra under a strict PQ and
// Bellman-Ford-ish under FIFO — the scheduling policy decides (§2.1).
type SSSP struct {
	g      *graph.Graph
	src    int32
	dist   []int64
	stacks []uint64
}

// NewSSSP builds the kernel on a weighted graph. Addresses for per-core
// stacks come from as.
func NewSSSP(g *graph.Graph, src int32, as *graph.AddrSpace, cores int) *SSSP {
	if g.Weights == nil {
		panic("kernels: SSSP needs a weighted graph")
	}
	k := &SSSP{g: g, src: src, dist: make([]int64, g.N), stacks: allocStacks(as, cores)}
	for i := range k.dist {
		k.dist[i] = math.MaxInt64 / 4
	}
	k.dist[src] = 0
	return k
}

// Graph implements Kernel.
func (k *SSSP) Graph() *graph.Graph { return k.g }

// InitialTasks implements Kernel.
func (k *SSSP) InitialTasks() []worklist.Task {
	return []worklist.Task{{Priority: 0, Node: k.src, EdgeHi: -1}}
}

// Dist exposes the computed distances (examples use this).
func (k *SSSP) Dist() []int64 { return k.dist }

// ArrivalTask implements Arrivable: re-relax the node's edges from its
// current distance. Relaxation is monotone (dist only decreases toward
// the true shortest path), so the extra application never changes the
// converged answer; at the fixpoint every edge check fails and the task
// is pure re-evaluation work.
func (k *SSSP) ArrivalTask(node int32) worklist.Task {
	return worklist.Task{Priority: k.dist[node], Node: node, EdgeHi: -1}
}

const (
	ssspPCStale = iota + 1
	ssspPCRelax
)

// Apply implements the operator of Fig. 1.
func (k *SSSP) Apply(w *galois.Worker, t worklist.Task) {
	e := newEmitter(w, k.g, k.stacks, pcBase(1))
	u := t.Node
	du := k.dist[u]

	// Load the source node's record (first touch: delinquent) and check
	// whether this task is stale — its scheduled priority already beaten.
	e.locals(3, 1, 14)
	e.loadNode(u, false)
	stale := du < t.Priority
	e.branch(pcBase(1)+ssspPCStale, stale, true)
	if stale {
		return
	}

	lo, hi := taskRange(k.g, t)
	for i := lo; i < hi; i++ {
		v := k.g.Dests[i]
		wgt := int64(k.g.Weights[i])
		newDist := du + wgt

		// Edge record, then the edge-dependent destination node record.
		e.locals(6, 2, 18)
		e.loadEdge(i)
		e.loadNode(v, true)
		e.locals(2, 0, 6)

		improved := newDist < k.dist[v]
		e.branch(pcBase(1)+ssspPCRelax, improved, true)
		if improved {
			// CAS-style update, then enqueue the destination.
			k.dist[v] = newDist
			e.atomicNode(v)
			e.locals(2, 1, 8)
			w.Push(newDist, v)
		}
	}
	e.locals(2, 1, 8)
}

// Verify implements Kernel: compare against Dijkstra.
func (k *SSSP) Verify() error {
	ref := dijkstra(k.g, k.src)
	for v := range ref {
		if ref[v] != k.dist[v] {
			return fmt.Errorf("sssp: dist[%d] = %d, want %d", v, k.dist[v], ref[v])
		}
	}
	return nil
}

// dijkstra is the reference shortest-path implementation.
func dijkstra(g *graph.Graph, src int32) []int64 {
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

// distHeap is dijkstra's min-heap of tentative distances, ordered by d
// through container/heap.
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
