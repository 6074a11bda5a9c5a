package kernels

import (
	"fmt"

	"minnow/internal/galois"
	"minnow/internal/graph"
	"minnow/internal/worklist"
)

// BC is non-blocking bipartite coloring (§6.1): tasks propagate a node's
// color (0/1) to its neighbors; an uncolored neighbor is claimed with an
// atomic and enqueued, an equal-colored neighbor marks the graph
// non-bipartite. BC does not benefit from priority ordering.
type BC struct {
	g        *graph.Graph
	color    []int8 // -1 uncolored
	conflict bool
	stacks   []uint64
}

// NewBC builds the kernel.
func NewBC(g *graph.Graph, as *graph.AddrSpace, cores int) *BC {
	k := &BC{g: g, color: make([]int8, g.N), stacks: allocStacks(as, cores)}
	for i := range k.color {
		k.color[i] = -1
	}
	return k
}

// Graph implements Kernel.
func (k *BC) Graph() *graph.Graph { return k.g }

// InitialTasks implements Kernel: the first non-isolated node of each
// connected component (graph.Components — initialization, not simulated
// work), pre-colored 0.
func (k *BC) InitialTasks() []worklist.Task {
	labels, _ := k.g.Components()
	seeded := make([]bool, k.g.N)
	var ts []worklist.Task
	for v, l := range labels {
		if k.g.Degree(int32(v)) == 0 || seeded[l] {
			continue
		}
		seeded[l] = true
		k.color[v] = 0
		ts = append(ts, worklist.Task{Priority: 0, Node: int32(v), EdgeHi: -1})
	}
	return ts
}

// Bipartite reports whether no coloring conflict was found.
func (k *BC) Bipartite() bool { return !k.conflict }

const (
	bcPCClaim = iota + 1
	bcPCAgree
)

// Apply implements the operator.
func (k *BC) Apply(w *galois.Worker, t worklist.Task) {
	e := newEmitter(w, k.g, k.stacks, pcBase(6))
	u := t.Node

	e.locals(3, 1, 14)
	e.loadNode(u, false)
	want := int8(1 - k.color[u])

	lo, hi := taskRange(k.g, t)
	for i := lo; i < hi; i++ {
		v := k.g.Dests[i]

		e.locals(6, 2, 16)
		e.loadEdge(i)
		e.loadNode(v, true)

		unclaimed := k.color[v] < 0
		e.branch(pcBase(6)+bcPCClaim, unclaimed, true)
		if unclaimed {
			k.color[v] = want
			e.atomicNode(v)
			e.locals(2, 1, 8)
			w.Push(0, v)
			continue
		}
		agree := k.color[v] == want
		e.branch(pcBase(6)+bcPCAgree, agree, true)
		if !agree {
			k.conflict = true
			e.locals(1, 1, 4)
		}
	}
	e.locals(2, 1, 8)
}

// Verify implements Kernel: every non-isolated node must be colored and
// no edge may connect equal colors (our generator produces bipartite
// inputs); the conflict flag must agree with an independent 2-coloring.
func (k *BC) Verify() error {
	refOK := twoColorable(k.g)
	if k.conflict == refOK {
		return fmt.Errorf("bc: conflict=%v but reference bipartite=%v", k.conflict, refOK)
	}
	if !refOK {
		return nil // conflict correctly detected; coloring is moot
	}
	for v := int32(0); v < int32(k.g.N); v++ {
		if k.g.Degree(v) == 0 {
			continue
		}
		if k.color[v] < 0 {
			return fmt.Errorf("bc: node %d left uncolored", v)
		}
		lo, hi := k.g.EdgeRange(v)
		for e := lo; e < hi; e++ {
			if k.color[k.g.Dests[e]] == k.color[v] {
				return fmt.Errorf("bc: edge %d-%d monochromatic", v, k.g.Dests[e])
			}
		}
	}
	return nil
}

// twoColorable checks bipartiteness by BFS 2-coloring.
func twoColorable(g *graph.Graph) bool {
	color := make([]int8, g.N)
	for i := range color {
		color[i] = -1
	}
	for s := int32(0); s < int32(g.N); s++ {
		if color[s] >= 0 || g.Degree(s) == 0 {
			continue
		}
		color[s] = 0
		queue := []int32{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			lo, hi := g.EdgeRange(v)
			for e := lo; e < hi; e++ {
				d := g.Dests[e]
				if color[d] < 0 {
					color[d] = 1 - color[v]
					queue = append(queue, d)
				} else if color[d] == color[v] {
					return false
				}
			}
		}
	}
	return true
}
