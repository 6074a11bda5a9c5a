package kernels

import (
	"fmt"
	"math"

	"minnow/internal/galois"
	"minnow/internal/graph"
	"minnow/internal/worklist"
)

// PRDamping is the standard PageRank damping factor.
const PRDamping = 0.85

// PREpsilon is the residual threshold below which a node needs no task.
const PREpsilon = 1e-4

// PR is non-blocking, data-driven, push-based PageRank (Whang et al.,
// Euro-Par'15, §6.1): each node holds a rank and a residual; a task folds
// the node's residual into its rank and pushes d*residual/degree to every
// out-neighbor *unconditionally with an atomic add* — the fence-heavy
// behaviour behind PR's 32% store-cycle bottleneck (§3.2) and its 5x
// no-fence speedup (§3.3). Neighbors crossing the epsilon threshold are
// enqueued with priority = descending residual.
type PR struct {
	g        *graph.Graph
	rank     []float64
	residual []float64
	stacks   []uint64
}

// NewPR builds the kernel.
func NewPR(g *graph.Graph, as *graph.AddrSpace, cores int) *PR {
	k := &PR{
		g:        g,
		rank:     make([]float64, g.N),
		residual: make([]float64, g.N),
		stacks:   allocStacks(as, cores),
	}
	for i := range k.residual {
		k.residual[i] = 1 - PRDamping
	}
	return k
}

// Graph implements Kernel.
func (k *PR) Graph() *graph.Graph { return k.g }

// InitialTasks implements Kernel: every node starts with residual 1-d.
func (k *PR) InitialTasks() []worklist.Task {
	ts := make([]worklist.Task, k.g.N)
	for i := range ts {
		ts[i] = worklist.Task{Priority: residPriority(1 - PRDamping), Node: int32(i), EdgeHi: -1}
	}
	return ts
}

// Rank exposes the computed ranks (rank + unconverged residual).
func (k *PR) Rank(v int32) float64 { return k.rank[v] + k.residual[v] }

// ArrivalTask implements Arrivable: re-drain the node's current
// residual. The operator's empty-residual guard makes the application a
// no-op below epsilon, and draining an above-epsilon residual early is
// work the data-driven schedule already permits, so the converged ranks
// stay within Verify's tolerance.
func (k *PR) ArrivalTask(node int32) worklist.Task {
	return worklist.Task{Priority: residPriority(k.residual[node]), Node: node, EdgeHi: -1}
}

// residPriority maps a residual to a descending-order integer priority.
func residPriority(r float64) int64 {
	return -int64(r * 1e7)
}

const (
	prPCEmpty = iota + 1
	prPCWake
)

// Apply implements the operator.
func (k *PR) Apply(w *galois.Worker, t worklist.Task) {
	e := newEmitter(w, k.g, k.stacks, pcBase(4))
	u := t.Node

	e.locals(3, 1, 16)
	e.loadNode(u, false)

	r := k.residual[u]
	empty := r < PREpsilon
	e.branch(pcBase(4)+prPCEmpty, empty, true)
	if empty {
		return
	}
	k.rank[u] += r
	k.residual[u] = 0
	e.storeNode(u)

	deg := k.g.Degree(u)
	if deg == 0 {
		return
	}
	share := PRDamping * r / float64(deg)

	lo, hi := taskRange(k.g, t)
	for i := lo; i < hi; i++ {
		v := k.g.Dests[i]

		e.locals(6, 2, 20)
		e.loadEdge(i)
		e.loadNode(v, true)

		old := k.residual[v]
		k.residual[v] = old + share
		// The residual is pushed unconditionally to every neighbor:
		// atomic float add (fence!).
		e.atomicNode(v)

		wake := old < PREpsilon && old+share >= PREpsilon
		e.branch(pcBase(4)+prPCWake, wake, true)
		if wake {
			e.locals(2, 1, 8)
			w.Push(residPriority(old+share), v)
		}
	}
	e.locals(2, 1, 8)
}

// Verify implements Kernel: Jacobi iteration on the same linear system
// (rank[v] = (1-d) + d·Σ_{u→v} rank[u]/deg(u)) must agree within the
// convergence tolerance implied by epsilon.
func (k *PR) Verify() error {
	n := k.g.N
	ref := make([]float64, n)
	next := make([]float64, n)
	for i := range ref {
		ref[i] = 1 - PRDamping
	}
	for iter := 0; iter < 500; iter++ {
		for i := range next {
			next[i] = 1 - PRDamping
		}
		for u := int32(0); u < int32(n); u++ {
			deg := k.g.Degree(u)
			if deg == 0 {
				continue
			}
			share := PRDamping * ref[u] / float64(deg)
			lo, hi := k.g.EdgeRange(u)
			for e := lo; e < hi; e++ {
				next[k.g.Dests[e]] += share
			}
		}
		var delta float64
		for i := range ref {
			delta += math.Abs(next[i] - ref[i])
		}
		ref, next = next, ref
		if delta < PREpsilon/10 {
			break
		}
	}
	// The data-driven run leaves residuals below epsilon unapplied. Each
	// in-neighbor u withholds at most d·eps/deg(u) ≤ d·eps directly, and
	// withheld mass propagates along paths with total amplification
	// 1/(1-d); the Jacobi reference itself stops at delta < eps/10 with
	// the same amplification. The per-node tolerance combines both.
	inDeg := make([]int64, n)
	for u := int32(0); u < int32(n); u++ {
		lo, hi := k.g.EdgeRange(u)
		for e := lo; e < hi; e++ {
			inDeg[k.g.Dests[e]]++
		}
	}
	// The in-degree term is amplified twice: once for direct withheld
	// shares and once for mass withheld upstream of the in-neighbors
	// (schedules differ in where sub-epsilon residuals settle).
	amp := 1 / (1 - PRDamping)
	for v := 0; v < n; v++ {
		got := k.rank[v] + k.residual[v]
		tol := 1e-6 + PREpsilon*(1+PRDamping*float64(inDeg[v])*amp)*amp + PREpsilon/10*amp
		if math.Abs(got-ref[v]) > tol {
			return fmt.Errorf("pr: rank[%d] = %g, want %g (±%g)", v, got, ref[v], tol)
		}
	}
	return nil
}
