package kernels

import (
	"fmt"

	"minnow/internal/galois"
	"minnow/internal/graph"
	"minnow/internal/worklist"
)

// CC is non-blocking minimum-label propagation connected components
// (Nguyen et al., SOSP'13): every node starts labeled with its own id;
// tasks push a node's label to neighbors with larger labels. Work is
// prioritized by ascending component label. Because nearly every push
// carries a different priority, OBIM's changing-bucket slow path fires
// constantly — CC is the paper's worklist-bound workload (92% worklist
// cycles at 64 threads, §3.2).
type CC struct {
	g      *graph.Graph
	comp   []int64
	stacks []uint64
}

// NewCC builds the kernel.
func NewCC(g *graph.Graph, as *graph.AddrSpace, cores int) *CC {
	k := &CC{g: g, comp: make([]int64, g.N), stacks: allocStacks(as, cores)}
	for i := range k.comp {
		k.comp[i] = int64(i)
	}
	return k
}

// Graph implements Kernel.
func (k *CC) Graph() *graph.Graph { return k.g }

// InitialTasks implements Kernel: every node seeds one task (its own
// label may win its neighborhood).
func (k *CC) InitialTasks() []worklist.Task {
	ts := make([]worklist.Task, k.g.N)
	for i := range ts {
		ts[i] = worklist.Task{Priority: int64(i), Node: int32(i), EdgeHi: -1}
	}
	return ts
}

// Components exposes the computed labels.
func (k *CC) Components() []int64 { return k.comp }

// ArrivalTask implements Arrivable: re-propagate the node's current
// label. Min-label propagation is monotone (labels only decrease toward
// the component minimum), so the extra application never changes the
// converged answer.
func (k *CC) ArrivalTask(node int32) worklist.Task {
	return worklist.Task{Priority: k.comp[node], Node: node, EdgeHi: -1}
}

const (
	ccPCStale = iota + 1
	ccPCProp
)

// Apply implements the operator.
func (k *CC) Apply(w *galois.Worker, t worklist.Task) {
	e := newEmitter(w, k.g, k.stacks, pcBase(3))
	u := t.Node
	label := k.comp[u]

	e.locals(3, 1, 14)
	e.loadNode(u, false)
	stale := label < t.Priority
	e.branch(pcBase(3)+ccPCStale, stale, false)
	// A stale task still holds a valid (smaller) label; keep going with
	// the fresher label — min-label propagation is monotone.

	lo, hi := taskRange(k.g, t)
	for i := lo; i < hi; i++ {
		v := k.g.Dests[i]

		e.locals(6, 2, 16)
		e.loadEdge(i)
		e.loadNode(v, true)

		improves := label < k.comp[v]
		e.branch(pcBase(3)+ccPCProp, improves, true)
		if improves {
			k.comp[v] = label
			e.atomicNode(v)
			e.locals(2, 1, 8)
			w.Push(label, v)
		}
	}
	e.locals(2, 1, 8)
}

// Verify implements Kernel: labels must match union-find components, with
// each component labeled by its minimum member.
func (k *CC) Verify() error {
	uf := newUnionFind(k.g.N)
	for v := int32(0); v < int32(k.g.N); v++ {
		lo, hi := k.g.EdgeRange(v)
		for e := lo; e < hi; e++ {
			uf.union(int(v), int(k.g.Dests[e]))
		}
	}
	// Minimum node id per component root.
	minOf := make(map[int]int64)
	for v := 0; v < k.g.N; v++ {
		r := uf.find(v)
		if m, ok := minOf[r]; !ok || int64(v) < m {
			minOf[r] = int64(v)
		}
	}
	for v := 0; v < k.g.N; v++ {
		want := minOf[uf.find(v)]
		if k.comp[v] != want {
			return fmt.Errorf("cc: comp[%d] = %d, want %d", v, k.comp[v], want)
		}
	}
	return nil
}

type unionFind struct {
	parent []int
	rank   []int8
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), rank: make([]int8, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
}
