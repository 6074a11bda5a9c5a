package kernels

import (
	"fmt"
	"sort"

	"minnow/internal/galois"
	"minnow/internal/graph"
	"minnow/internal/worklist"
)

// KCore computes the k-core decomposition (each node's coreness) with the
// asynchronous h-operator algorithm of Montresor, De Pellegrini & Miorandi
// ("Distributed k-core decomposition", 2011): every node keeps a coreness
// estimate, initially its degree; a task recomputes the node's h-index
// over its neighbors' estimates and, when its own estimate drops,
// re-enqueues the neighbors whose estimates may now be affected. The
// fixpoint is exactly the coreness.
//
// KCore is not in the paper's Table 2 — it implements §8's future-work
// direction ("extending Minnow to accelerate other classes of irregular
// workloads"): a different irregular kernel with data-driven task
// generation and a natural priority order (ascending estimate), run
// unmodified on the same framework, engines, and prefetch program.
type KCore struct {
	g      *graph.Graph
	est    []int32
	stacks []uint64
}

// NewKCore builds the kernel.
func NewKCore(g *graph.Graph, as *graph.AddrSpace, cores int) *KCore {
	k := &KCore{g: g, est: make([]int32, g.N), stacks: allocStacks(as, cores)}
	for v := range k.est {
		k.est[v] = g.Degree(int32(v))
	}
	return k
}

// Graph implements Kernel.
func (k *KCore) Graph() *graph.Graph { return k.g }

// InitialTasks implements Kernel: every node starts with one estimate
// task, prioritized by its degree.
func (k *KCore) InitialTasks() []worklist.Task {
	ts := make([]worklist.Task, k.g.N)
	for i := range ts {
		ts[i] = worklist.Task{Priority: int64(k.est[i]), Node: int32(i), EdgeHi: -1}
	}
	return ts
}

// Coreness exposes the converged estimates.
func (k *KCore) Coreness() []int32 { return k.est }

// ArrivalTask implements Arrivable: recompute the node's h-index over
// its neighbors' current estimates. The h-operator's chaotic iteration
// converges to the coreness under any re-evaluation order, so the extra
// application never changes the converged answer.
func (k *KCore) ArrivalTask(node int32) worklist.Task {
	return worklist.Task{Priority: int64(k.est[node]), Node: node, EdgeHi: -1}
}

const (
	kcPCImproved = iota + 1
	kcPCNotify
)

// hIndex returns the largest h such that at least h values are >= h,
// capped at cap (the node's own estimate cannot rise).
func hIndex(vals []int32, capVal int32) int32 {
	// Counting approach over the bounded estimate domain.
	count := make([]int32, capVal+2)
	for _, v := range vals {
		if v > capVal {
			v = capVal
		}
		if v > 0 {
			count[v]++
		}
	}
	var atLeast int32
	for h := capVal; h >= 1; h-- {
		atLeast += count[h]
		if atLeast >= h {
			return h
		}
	}
	return 0
}

// Apply implements the operator: recompute this node's h-index estimate.
func (k *KCore) Apply(w *galois.Worker, t worklist.Task) {
	e := newEmitter(w, k.g, k.stacks, pcBase(8))
	u := t.Node
	old := k.est[u]

	e.locals(3, 1, 14)
	e.loadNode(u, false)

	lo, hi := taskRange(k.g, t)
	vals := make([]int32, 0, hi-lo)
	for i := lo; i < hi; i++ {
		v := k.g.Dests[i]
		e.locals(4, 1, 10)
		e.loadEdge(i)
		e.loadNode(v, true)
		vals = append(vals, k.est[v])
	}
	// h-index computation over the gathered estimates.
	e.locals(2, 2, 4*len(vals)+8)

	h := hIndex(vals, old)
	improved := h < old
	e.branch(pcBase(8)+kcPCImproved, improved, true)
	if !improved {
		return
	}
	k.est[u] = h
	e.storeNode(u)
	// Neighbors whose estimate exceeds our new value may need to drop.
	for i := lo; i < hi; i++ {
		v := k.g.Dests[i]
		affected := k.est[v] > h
		e.branch(pcBase(8)+kcPCNotify, affected, true)
		if affected {
			e.locals(1, 1, 3)
			w.Push(int64(k.est[v]), v)
		}
	}
	e.locals(2, 1, 8)
}

// Verify implements Kernel: compare against the sequential peeling
// algorithm (Batagelj-Zaversnik bucket queue).
func (k *KCore) Verify() error {
	ref := peelCoreness(k.g)
	for v := 0; v < k.g.N; v++ {
		if k.est[v] != ref[v] {
			return fmt.Errorf("kcore: core[%d] = %d, want %d", v, k.est[v], ref[v])
		}
	}
	return nil
}

// peelCoreness is the O(E) reference peeling.
func peelCoreness(g *graph.Graph) []int32 {
	n := g.N
	deg := make([]int32, n)
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(int32(v))
	}
	// Order nodes by degree (simple sort; reference clarity over speed).
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool { return deg[order[i]] < deg[order[j]] })
	pos := make([]int32, n)
	for i, v := range order {
		pos[v] = int32(i)
	}
	coreness := make([]int32, n)
	cur := append([]int32(nil), deg...)
	for i := 0; i < n; i++ {
		v := order[i]
		coreness[v] = cur[v]
		lo, hi := g.EdgeRange(v)
		for e := lo; e < hi; e++ {
			u := g.Dests[e]
			if cur[u] > cur[v] {
				cur[u]--
				// Re-sort lazily: bubble u toward the front.
				for p := pos[u]; p > int32(i)+1 && cur[order[p-1]] > cur[u]; p-- {
					order[p], order[p-1] = order[p-1], order[p]
					pos[order[p]] = p
					pos[order[p-1]] = p - 1
				}
			}
		}
	}
	return coreness
}
