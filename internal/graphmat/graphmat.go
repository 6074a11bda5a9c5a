// Package graphmat implements the GraphMat-like baseline of §3.1: an
// unordered bulk-synchronous (BSP) graph framework built in the style of a
// tuned SpMV library. Each round processes the whole active frontier in
// parallel, double-buffer-style without atomics, then barriers.
//
// Its per-edge cost is deliberately lower than the Galois operators'
// (tight vectorized loops, no task scheduling, no atomics) — GraphMat
// legitimately wins on priority-insensitive workloads. What it cannot do
// is exploit priority ordering: unordered SSSP degenerates to
// Bellman-Ford and its work efficiency collapses on high-diameter graphs,
// which is the Fig. 2/3 story. GMatStarSSSP is the authors' per-bucket
// delta-stepping retrofit ("GMat*"), which launches one full kernel per
// round of a priority bucket.
//
// Runner.Run is the one loop over BSP rounds. A Frontier decides which
// nodes each round runs: GraphMat's own unordered frontier runs the
// previous round's activations deduplicated in activation order (not node
// order), while GMat*'s bucketed frontier runs the pending nodes of the
// lowest distance bucket in ascending node order and charges a kernel
// launch per round.
//
// Every program checks its converged answer against the same reference
// in package graph that the Galois kernels use: SSSP and GMat* match
// ShortestPaths exactly, BFS matches BFSFrom, CC matches Components, and
// PR lies within its convergence bound of PageRank.
//
// Determinism contract: each round runs its frontier in a fixed order
// (activation order or ascending node order) on a fixed core rotation, so
// a given configuration and seed always reproduces the same iteration
// counts and cycle totals.
package graphmat

import (
	"fmt"
	"math"
	"slices"

	"minnow/internal/cpu"
	"minnow/internal/graph"
	"minnow/internal/prof"
	"minnow/internal/sim"
	"minnow/internal/uops"
)

// Result summarizes a BSP run.
type Result struct {
	Wall       sim.Time
	Iterations int
	WorkItems  int64 // active-node processings (work-efficiency metric)
	TimedOut   bool
}

// Program is one GraphMat vertex program: process an active node, return
// which neighbors become active next iteration.
type Program interface {
	Name() string
	// Init returns the initially active nodes.
	Init() []int32
	// Process runs node u's update, emitting micro-ops into tr (addresses
	// from the graph layout), and appends activated nodes to out. scratch
	// is the executing thread's private accumulator region: GraphMat's
	// SpMV partitions its output per thread and merges at the barrier, so
	// unconditional reduction stores go to scratch, not shared lines.
	Process(tr *uops.Trace, u int32, out []int32, scratch uint64) []int32
	// Verify checks the converged state.
	Verify() error
}

// Runner executes a Program to convergence on the simulated cores.
type Runner struct {
	G     *graph.Graph
	Cores []*cpu.Core
	Prog  Program
	// Frontier picks each round's nodes; nil means GraphMat's unordered
	// frontier.
	Frontier Frontier
	Budget   int64 // max work items (0 = unlimited); exceeding = timeout
}

// Frontier is a BSP run's scheduling policy: it holds the activated
// nodes, hands Runner each round's active set, and names what a round
// and a node cost besides the program's own work. It has two
// implementations: the unordered frontier (Runner's default) and GMat*'s
// bucketed one (GMatStarSSSP.Frontier).
type Frontier interface {
	// push records nodes activated for a later round.
	push(vs []int32)
	// next returns the coming round's active nodes, empty once the run
	// has converged; the slice stays valid until the following call.
	next() []int32
	// launch is the kernel-launch cost every core pays per round, right
	// after the dense phase.
	launch() sim.Time
	// visit emits the frontier's per-node bookkeeping ahead of Process.
	visit(tr *uops.Trace, u int32)
}

// nodeSet is a deduplicated list of nodes in insertion order.
type nodeSet struct {
	list []int32
	in   []bool
}

func (s *nodeSet) push(vs []int32) {
	for _, v := range vs {
		if !s.in[v] {
			s.in[v] = true
			s.list = append(s.list, v)
		}
	}
}

// unordered is GraphMat's own frontier (its sparse-vector merge): a round
// runs every node the previous round activated, deduplicated, in
// activation order.
type unordered struct {
	nodeSet
	cur []int32
}

func (f *unordered) next() []int32 {
	for _, v := range f.list {
		f.in[v] = false
	}
	f.cur, f.list = f.list, f.cur[:0]
	return f.cur
}

func (*unordered) launch() sim.Time { return 0 }

// visit charges the frontier-bitvector scan, amortized to one
// non-delinquent load per node processed.
func (*unordered) visit(tr *uops.Trace, u int32) {
	tr.Load(0x100+uint64(u/8), false, false)
}

// launchCycles is the cost of one GMat* kernel launch: GraphMat kernel
// dispatch re-runs the whole framework set-up (sparse-vector allocation,
// message-buffer set-up, program registration) per launch. The paper
// reports this overhead forced "a much larger optimal bucket interval
// than Galois with OBIM" and left GMat* only ~2x better than unordered
// GraphMat at 10 threads.
const launchCycles sim.Time = 100000

// bucketed is GMat*'s frontier: a round runs the pending nodes whose
// current distance falls in the lowest pending bucket of width
// 2^lg, in ascending node order, and every round is a kernel launch.
type bucketed struct {
	nodeSet
	dist []int64
	lg   uint
	cur  []int32
}

func (f *bucketed) next() []int32 {
	low := int64(math.MaxInt64)
	for _, v := range f.list {
		low = min(low, f.dist[v]>>f.lg)
	}
	rest, cur := f.list[:0], f.cur[:0]
	for _, v := range f.list {
		if f.dist[v]>>f.lg == low {
			f.in[v] = false
			cur = append(cur, v)
		} else {
			rest = append(rest, v)
		}
	}
	slices.Sort(cur)
	f.list, f.cur = rest, cur
	return cur
}

func (*bucketed) launch() sim.Time { return launchCycles }

func (*bucketed) visit(*uops.Trace, int32) {}

// frontierPCBase tags GraphMat's load sites (distinct from the Galois
// kernels' namespaces).
const frontierPCBase = 7 << 8

// bookkeeping emits the scalar register-spill and loop-control traffic a
// compiled scatter kernel pays per element: GraphMat's SpMV loops are
// tight but not free (roughly half the Galois operator's overhead — no
// scheduling, no atomics).
func bookkeeping(tr *uops.Trace, scratch uint64, loads, compute int) {
	for i := 0; i < loads; i++ {
		tr.Load(scratch+uint64(i%4)*64, false, false)
	}
	tr.Compute(compute)
}

// densePhase charges every core its slice of GraphMat's dense per-
// iteration passes: the frontier-bitvector scan plus the apply() pass
// that reads and conditionally writes the full property vector (8B per
// vertex, sequential — the streaming pattern GraphMat is built around).
// The frontier is GraphMat's worklist, so the passes run in the enqueue
// region and count as worklist time; barrier and launch waits likewise
// run in the idle region.
func densePhase(cores []*cpu.Core, n int, tr *uops.Trace) {
	per := n / len(cores)
	lines := per*8/64 + 1
	bitLines := per/512 + 1
	for c := range cores {
		tr.Reset()
		for l := 0; l < bitLines; l++ {
			tr.Load(0x4000+uint64(l)*64, false, false)
		}
		for l := 0; l < lines; l++ {
			tr.Load(0x40000+uint64(c*lines+l)*64, false, false)
		}
		tr.Compute(per / 2)
		prev, cur := cores[c].EnterRegion(prof.RegionEnq)
		cores[c].Run(tr.Ops)
		cores[c].RestoreRegion(prev, cur)
	}
}

// Run iterates to convergence (empty frontier) or until the budget is
// exhausted.
func (r *Runner) Run() Result {
	f := r.Frontier
	if f == nil {
		f = &unordered{nodeSet: nodeSet{in: make([]bool, r.G.N)}}
	}
	f.push(r.Prog.Init())
	res := Result{}
	var tr uops.Trace
	var out []int32
	n := len(r.Cores)
	for active := f.next(); len(active) > 0; active = f.next() {
		res.Iterations++
		// Per-iteration dense vector phase: GraphMat's apply() pass runs
		// over EVERY vertex each iteration (scan the frontier bitvector,
		// read/update the dense property vector). This O(N)-per-iteration
		// cost is why bulk-synchronous frameworks collapse on
		// high-diameter inputs that need hundreds of iterations (§3.1).
		densePhase(r.Cores, r.G.N, &tr)
		for _, c := range r.Cores {
			c.AdvanceIn(prof.RegionIdle, c.Now()+f.launch())
		}
		// Static contiguous partitioning of the frontier.
		chunk := (len(active) + n - 1) / n
		for c := 0; c*chunk < len(active); c++ {
			core := r.Cores[c]
			scratch := uint64(0x8000 + c*512)
			for _, u := range active[c*chunk : min((c+1)*chunk, len(active))] {
				tr.Reset()
				f.visit(&tr, u)
				out = r.Prog.Process(&tr, u, out[:0], scratch)
				f.push(out)
				core.Run(tr.Ops)
				res.WorkItems++
			}
		}
		// Barrier: everyone advances to the slowest core.
		var maxT sim.Time
		for _, c := range r.Cores {
			maxT = max(maxT, c.Now())
		}
		for _, c := range r.Cores {
			c.AdvanceIn(prof.RegionIdle, maxT+20) // +20: barrier sync cost
		}
		if r.Budget > 0 && res.WorkItems > r.Budget {
			res.TimedOut = true
			break
		}
	}
	for _, c := range r.Cores {
		res.Wall = max(res.Wall, c.Now())
	}
	return res
}

// --- SSSP (unordered Bellman-Ford BSP) ---

// SSSP is the unordered GraphMat shortest-path kernel.
type SSSP struct {
	G    *graph.Graph
	Src  int32
	Dist []int64
}

// NewSSSP builds the kernel.
func NewSSSP(g *graph.Graph, src int32) *SSSP {
	k := &SSSP{G: g, Src: src, Dist: make([]int64, g.N)}
	for i := range k.Dist {
		k.Dist[i] = math.MaxInt64 / 4
	}
	k.Dist[src] = 0
	return k
}

// Name implements Program.
func (k *SSSP) Name() string { return "gmat-sssp" }

// Init implements Program.
func (k *SSSP) Init() []int32 { return []int32{k.Src} }

// Process implements Program.
func (k *SSSP) Process(tr *uops.Trace, u int32, out []int32, scratch uint64) []int32 {
	tr.LoadPC(frontierPCBase+0x43, k.G.NodeAddr(u), true, false)
	bookkeeping(tr, scratch, 2, 10)
	out = k.relax(tr, u, out, scratch, frontierPCBase+1)
	tr.Compute(4)
	return out
}

// relax relaxes u's out-edges, tagging the improvement branch with pc,
// and appends every improved neighbor to out.
func (k *SSSP) relax(tr *uops.Trace, u int32, out []int32, scratch, pc uint64) []int32 {
	g := k.G
	du := k.Dist[u]
	lo, hi := g.EdgeRange(u)
	for i := lo; i < hi; i++ {
		v := g.Dests[i]
		nd := du + int64(g.Weights[i])
		tr.LoadPC(frontierPCBase+0x41, g.EdgeAddr(i), true, false)
		tr.LoadPC(frontierPCBase+0x42, g.NodeAddr(v), true, true)
		bookkeeping(tr, scratch, 3, 10)
		improved := nd < k.Dist[v]
		tr.Branch(pc, improved, true)
		if improved {
			k.Dist[v] = nd
			tr.Store(g.NodeAddr(v))
			out = append(out, v)
		}
	}
	return out
}

// Verify implements Program: the distances must equal the reference.
func (k *SSSP) Verify() error {
	return verifyDist("graphmat sssp", k.G, k.Src, k.Dist)
}

// verifyDist compares dist with graph.ShortestPaths from src.
func verifyDist(name string, g *graph.Graph, src int32, dist []int64) error {
	for v, want := range g.ShortestPaths(src) {
		if dist[v] != want {
			return fmt.Errorf("%s: dist[%d] = %d, want %d", name, v, dist[v], want)
		}
	}
	return nil
}

// --- GMat* (per-bucket delta-stepping, §3.1) ---

// GMatStarSSSP is the GraphMat authors' delta-stepping kernel: an outer
// loop over priority buckets, each round of a bucket a full unordered
// kernel restricted to the bucket's pending nodes. It runs under its
// bucketed Frontier, whose per-round kernel launch forces a much larger
// optimal bucket interval than OBIM's (§3.1).
type GMatStarSSSP struct {
	SSSP
	LgInterval uint
}

// NewGMatStar builds the kernel.
func NewGMatStar(g *graph.Graph, src int32, lgInterval uint) *GMatStarSSSP {
	return &GMatStarSSSP{SSSP: *NewSSSP(g, src), LgInterval: lgInterval}
}

// Name implements Program.
func (k *GMatStarSSSP) Name() string { return "gmat*-sssp" }

// Process implements Program: the launched kernel's relax body alone,
// with no per-node bookkeeping and no loop epilogue.
func (k *GMatStarSSSP) Process(tr *uops.Trace, u int32, out []int32, scratch uint64) []int32 {
	tr.LoadPC(frontierPCBase+0x43, k.G.NodeAddr(u), true, false)
	return k.relax(tr, u, out, scratch, frontierPCBase+2)
}

// Frontier returns the bucketed frontier over k's distances that GMat*
// runs under.
func (k *GMatStarSSSP) Frontier() Frontier {
	return &bucketed{nodeSet: nodeSet{in: make([]bool, k.G.N)}, dist: k.Dist, lg: k.LgInterval}
}

// Verify checks the distances against the reference.
func (k *GMatStarSSSP) Verify() error {
	return verifyDist("gmat* sssp", k.G, k.Src, k.Dist)
}
