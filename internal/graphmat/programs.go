package graphmat

import (
	"fmt"
	"math"

	"minnow/internal/graph"
	"minnow/internal/uops"
)

// --- BFS (level-synchronous) ---

// BFS is the GraphMat breadth-first search program.
type BFS struct {
	G    *graph.Graph
	Src  int32
	Hops []int64
}

// NewBFS builds the program.
func NewBFS(g *graph.Graph, src int32) *BFS {
	k := &BFS{G: g, Src: src, Hops: make([]int64, g.N)}
	for i := range k.Hops {
		k.Hops[i] = math.MaxInt64 / 4
	}
	k.Hops[src] = 0
	return k
}

// Name implements Program.
func (k *BFS) Name() string { return "gmat-bfs" }

// Init implements Program.
func (k *BFS) Init() []int32 { return []int32{k.Src} }

// Process implements Program.
func (k *BFS) Process(tr *uops.Trace, u int32, out []int32, scratch uint64) []int32 {
	g := k.G
	nd := k.Hops[u] + 1
	tr.LoadPC(frontierPCBase+0x43, g.NodeAddr(u), true, false)
	lo, hi := g.EdgeRange(u)
	for i := lo; i < hi; i++ {
		v := g.Dests[i]
		tr.LoadPC(frontierPCBase+0x41, g.EdgeAddr(i), true, false)
		tr.LoadPC(frontierPCBase+0x42, g.NodeAddr(v), true, true)
		bookkeeping(tr, scratch, 3, 8)
		fresh := nd < k.Hops[v]
		tr.Branch(frontierPCBase+3, fresh, true)
		if fresh {
			k.Hops[v] = nd
			tr.Store(g.NodeAddr(v))
			out = append(out, v)
		}
	}
	tr.Compute(3)
	return out
}

// Verify implements Program: the hop counts must equal graph.BFSFrom's,
// and unreachable nodes must keep their initial count.
func (k *BFS) Verify() error {
	for v, rd := range k.G.BFSFrom(k.Src) {
		want := int64(rd)
		if rd < 0 {
			want = math.MaxInt64 / 4
		}
		if k.Hops[v] != want {
			return fmt.Errorf("graphmat bfs: hops[%d] = %d, want %d", v, k.Hops[v], want)
		}
	}
	return nil
}

// --- CC (label propagation) ---

// CC is the GraphMat connected-components program.
type CC struct {
	G    *graph.Graph
	Comp []int64
}

// NewCC builds the program.
func NewCC(g *graph.Graph) *CC {
	k := &CC{G: g, Comp: make([]int64, g.N)}
	for i := range k.Comp {
		k.Comp[i] = int64(i)
	}
	return k
}

// Name implements Program.
func (k *CC) Name() string { return "gmat-cc" }

// Init implements Program.
func (k *CC) Init() []int32 { return allNodes(k.G.N) }

// Process implements Program.
func (k *CC) Process(tr *uops.Trace, u int32, out []int32, scratch uint64) []int32 {
	g := k.G
	label := k.Comp[u]
	tr.LoadPC(frontierPCBase+0x43, g.NodeAddr(u), true, false)
	lo, hi := g.EdgeRange(u)
	for i := lo; i < hi; i++ {
		v := g.Dests[i]
		tr.LoadPC(frontierPCBase+0x41, g.EdgeAddr(i), true, false)
		tr.LoadPC(frontierPCBase+0x42, g.NodeAddr(v), true, true)
		bookkeeping(tr, scratch, 3, 8)
		improves := label < k.Comp[v]
		tr.Branch(frontierPCBase+4, improves, true)
		if improves {
			k.Comp[v] = label
			tr.Store(g.NodeAddr(v))
			out = append(out, v)
		}
	}
	tr.Compute(3)
	return out
}

// Verify implements Program: every node must carry its component's
// minimum member, as graph.Components labels it.
func (k *CC) Verify() error {
	labels, _ := k.G.Components()
	for v, want := range labels {
		if k.Comp[v] != int64(want) {
			return fmt.Errorf("graphmat cc: comp[%d] = %d, want %d", v, k.Comp[v], want)
		}
	}
	return nil
}

// --- PR (SpMV iterations to convergence) ---

// PR is the GraphMat PageRank program: full-graph SpMV sweeps until the L1
// rank delta falls below Tol. Every node is active every iteration — the
// classic bulk-synchronous formulation.
type PR struct {
	G        *graph.Graph
	Rank     []float64
	next     []float64
	Damping  float64
	Tol      float64
	delta    float64
	sweepPos int
}

// NewPR builds the program.
func NewPR(g *graph.Graph, damping, tol float64) *PR {
	k := &PR{G: g, Rank: make([]float64, g.N), next: make([]float64, g.N), Damping: damping, Tol: tol}
	for i := range k.Rank {
		k.Rank[i] = 1 - damping
	}
	return k
}

// Name implements Program.
func (k *PR) Name() string { return "gmat-pr" }

// Init implements Program.
func (k *PR) Init() []int32 { return allNodes(k.G.N) }

// Process implements Program: push this node's contribution into the next
// vector; node N-1 closes the sweep and decides whether to iterate again.
func (k *PR) Process(tr *uops.Trace, u int32, out []int32, scratch uint64) []int32 {
	g := k.G
	if k.sweepPos == 0 {
		for i := range k.next {
			k.next[i] = 1 - k.Damping
		}
		k.delta = 0
	}
	k.sweepPos++
	tr.LoadPC(frontierPCBase+0x43, g.NodeAddr(u), true, false)
	deg := g.Degree(u)
	if deg > 0 {
		share := k.Damping * k.Rank[u] / float64(deg)
		lo, hi := g.EdgeRange(u)
		for i := lo; i < hi; i++ {
			v := g.Dests[i]
			tr.LoadPC(frontierPCBase+0x41, g.EdgeAddr(i), true, false)
			tr.LoadPC(frontierPCBase+0x42, g.NodeAddr(v), true, true)
			bookkeeping(tr, scratch, 3, 8)
			// Partitioned SpMV: the reduction lands in the thread's
			// private accumulator and merges at the barrier.
			tr.Store(scratch + uint64(v%8)*64)
			k.next[v] += share
		}
	}
	tr.Compute(4)
	if k.sweepPos == g.N {
		// Sweep complete: swap and test convergence.
		k.sweepPos = 0
		for i := range k.Rank {
			k.delta += math.Abs(k.next[i] - k.Rank[i])
		}
		k.Rank, k.next = k.next, k.Rank
		if k.delta >= k.Tol {
			return append(out, allNodes(g.N)...)
		}
	}
	return out
}

// Verify implements Program: the ranks must match the reference
// graph.PageRank, run to an L1 step below Tol/100. Each of the two
// vectors stopped after a sweep that moved it less than its tolerance in
// L1, which leaves it within tolerance·d/(1-d) of the fixpoint at every
// node; the bound is the sum of the two.
func (k *PR) Verify() error {
	refTol := k.Tol / 100
	bound := (k.Tol + refTol) * k.Damping / (1 - k.Damping)
	for v, want := range k.G.PageRank(k.Damping, refTol) {
		if math.Abs(k.Rank[v]-want) > bound {
			return fmt.Errorf("graphmat pr: rank[%d] = %g, want %g (±%g)", v, k.Rank[v], want, bound)
		}
	}
	return nil
}

// allNodes lists nodes 0..n-1, the frontier of a program that starts
// every node active.
func allNodes(n int) []int32 {
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	return all
}
