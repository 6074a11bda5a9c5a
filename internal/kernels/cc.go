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

// Verify implements Kernel: every node must carry its component's
// minimum member, as graph.Components labels it.
func (k *CC) Verify() error {
	labels, _ := k.g.Components()
	for v, want := range labels {
		if k.comp[v] != int64(want) {
			return fmt.Errorf("cc: comp[%d] = %d, want %d", v, k.comp[v], want)
		}
	}
	return nil
}
