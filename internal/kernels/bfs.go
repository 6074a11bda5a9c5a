package kernels

import (
	"fmt"
	"math"

	"minnow/internal/galois"
	"minnow/internal/graph"
	"minnow/internal/worklist"
)

// BFS is non-blocking push-based breadth-first search: tasks expand one
// node; unvisited (or later-visited) neighbors are claimed with an atomic
// and enqueued with priority = hop distance, so OBIM approximates
// level-synchronous order without barriers. Run on a uniform random graph
// it is the paper's BFS; on a Kronecker graph it is G500 (§6.1).
type BFS struct {
	g      *graph.Graph
	src    int32
	hops   []int64
	stacks []uint64
}

// NewBFS builds the kernel.
func NewBFS(g *graph.Graph, src int32, as *graph.AddrSpace, cores int) *BFS {
	k := &BFS{g: g, src: src, hops: make([]int64, g.N), stacks: allocStacks(as, cores)}
	for i := range k.hops {
		k.hops[i] = math.MaxInt64 / 4
	}
	k.hops[src] = 0
	return k
}

// Graph implements Kernel.
func (k *BFS) Graph() *graph.Graph { return k.g }

// InitialTasks implements Kernel.
func (k *BFS) InitialTasks() []worklist.Task {
	return []worklist.Task{{Priority: 0, Node: k.src, EdgeHi: -1}}
}

// Hops exposes the computed hop distances.
func (k *BFS) Hops() []int64 { return k.hops }

// ArrivalTask implements Arrivable: re-expand the node from its current
// hop count. Hop relaxation is monotone, so the extra application never
// changes the converged answer.
func (k *BFS) ArrivalTask(node int32) worklist.Task {
	return worklist.Task{Priority: k.hops[node], Node: node, EdgeHi: -1}
}

const (
	bfsPCStale = iota + 1
	bfsPCVisit
)

// Apply implements the operator.
func (k *BFS) Apply(w *galois.Worker, t worklist.Task) {
	e := newEmitter(w, k.g, k.stacks, pcBase(2))
	u := t.Node
	du := k.hops[u]

	e.locals(3, 1, 14)
	e.loadNode(u, false)
	stale := du < t.Priority
	e.branch(pcBase(2)+bfsPCStale, stale, true)
	if stale {
		return
	}

	lo, hi := taskRange(k.g, t)
	for i := lo; i < hi; i++ {
		v := k.g.Dests[i]
		nd := du + 1

		e.locals(6, 2, 16)
		e.loadEdge(i)
		e.loadNode(v, true)

		improved := nd < k.hops[v]
		e.branch(pcBase(2)+bfsPCVisit, improved, true)
		if improved {
			k.hops[v] = nd
			e.atomicNode(v)
			e.locals(2, 1, 8)
			w.Push(nd, v)
		}
	}
	e.locals(2, 1, 8)
}

// Verify implements Kernel: compare against a serial queue BFS.
func (k *BFS) Verify() error {
	ref := k.g.BFSFrom(k.src)
	for v, rd := range ref {
		got := k.hops[v]
		if rd < 0 {
			if got < math.MaxInt64/4 {
				return fmt.Errorf("bfs: node %d unreachable in reference, got %d", v, got)
			}
			continue
		}
		if got != int64(rd) {
			return fmt.Errorf("bfs: hops[%d] = %d, want %d", v, got, rd)
		}
	}
	return nil
}
