// Package graphmat implements the GraphMat-like baseline of §3.1: an
// unordered bulk-synchronous (BSP) graph framework built in the style of a
// tuned SpMV library. Each iteration processes the whole active frontier
// in parallel, double-buffer-style without atomics, then barriers.
//
// Its per-edge cost is deliberately lower than the Galois operators'
// (tight vectorized loops, no task scheduling, no atomics, frontier
// traversed in ascending node order so the access pattern is
// stride-friendly) — GraphMat legitimately wins on priority-insensitive
// workloads. What it cannot do is exploit priority ordering: unordered
// SSSP degenerates to Bellman-Ford and its work efficiency collapses on
// high-diameter graphs, which is the Fig. 2/3 story. GMatStarSSSP is the
// authors' per-bucket delta-stepping retrofit ("GMat*"), which runs one
// full kernel per priority bucket.
//
// Every program checks its converged answer against the same reference
// in package graph that the Galois kernels use: SSSP and GMat* match
// ShortestPaths exactly, BFS matches BFSFrom, CC matches Components, and
// PR lies within its convergence bound of PageRank.
//
// Determinism contract: the BSP sweeps process frontiers in ascending node
// order on a fixed core rotation, so a given configuration and seed always
// reproduces the same iteration counts and cycle totals.
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
	G      *graph.Graph
	Cores  []*cpu.Core
	Prog   Program
	Budget int64 // max work items (0 = unlimited); exceeding = timeout
}

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
	res := Result{}
	active := r.Prog.Init()
	inNext := make([]bool, r.G.N)
	var tr uops.Trace
	n := len(r.Cores)
	for len(active) > 0 {
		res.Iterations++
		// Per-iteration dense vector phase: GraphMat's apply() pass runs
		// over EVERY vertex each iteration (scan the frontier bitvector,
		// read/update the dense property vector). This O(N)-per-iteration
		// cost is why bulk-synchronous frameworks collapse on
		// high-diameter inputs that need hundreds of iterations (§3.1).
		densePhase(r.Cores, r.G.N, &tr)
		var next []int32
		// Static contiguous partitioning of the frontier.
		chunk := (len(active) + n - 1) / n
		for c := 0; c < n; c++ {
			lo := c * chunk
			if lo >= len(active) {
				break
			}
			hi := lo + chunk
			if hi > len(active) {
				hi = len(active)
			}
			core := r.Cores[c]
			scratch := uint64(0x8000 + c*512)
			for _, u := range active[lo:hi] {
				tr.Reset()
				// Frontier bookkeeping: bitvector scan amortized (one
				// non-delinquent load per node processed).
				tr.Load(0x100+uint64(u/8), false, false)
				before := len(next)
				next = r.Prog.Process(&tr, u, next, scratch)
				// Deduplicate activations (GraphMat's sparse-vector
				// merge).
				kept := next[:before]
				for _, v := range next[before:] {
					if !inNext[v] {
						inNext[v] = true
						kept = append(kept, v)
					}
				}
				next = kept
				core.Run(tr.Ops)
				res.WorkItems++
			}
		}
		// Barrier: everyone advances to the slowest core.
		var maxT sim.Time
		for _, c := range r.Cores {
			if c.Now() > maxT {
				maxT = c.Now()
			}
		}
		for _, c := range r.Cores {
			c.AdvanceIn(prof.RegionIdle, maxT+20) // +20: barrier sync cost
		}
		for _, v := range next {
			inNext[v] = false
		}
		active = next
		if r.Budget > 0 && res.WorkItems > r.Budget {
			res.TimedOut = true
			break
		}
	}
	for _, c := range r.Cores {
		if c.Now() > res.Wall {
			res.Wall = c.Now()
		}
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
	g := k.G
	du := k.Dist[u]
	tr.LoadPC(frontierPCBase+0x43, g.NodeAddr(u), true, false)
	bookkeeping(tr, scratch, 2, 10)
	lo, hi := g.EdgeRange(u)
	for i := lo; i < hi; i++ {
		v := g.Dests[i]
		nd := du + int64(g.Weights[i])
		tr.LoadPC(frontierPCBase+0x41, g.EdgeAddr(i), true, false)
		tr.LoadPC(frontierPCBase+0x42, g.NodeAddr(v), true, true)
		bookkeeping(tr, scratch, 3, 10)
		improved := nd < k.Dist[v]
		tr.Branch(frontierPCBase+1, improved, true)
		if improved {
			k.Dist[v] = nd
			tr.Store(g.NodeAddr(v))
			out = append(out, v)
		}
	}
	tr.Compute(4)
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
// loop over priority buckets, each bucket processed by a full unordered
// kernel restricted to frontier nodes inside the bucket. Kernel-launch
// overhead per bucket forces a much larger optimal bucket interval than
// OBIM's (§3.1).
type GMatStarSSSP struct {
	G          *graph.Graph
	Src        int32
	Dist       []int64
	LgInterval uint
	// LaunchOverhead is the per-kernel-launch cost in cycles: GraphMat
	// kernel dispatch re-runs the whole framework setup (sparse-vector
	// allocation, message-buffer setup, program registration) per bucket.
	// The paper reports this overhead forced "a much larger optimal
	// bucket interval than Galois with OBIM" and left GMat* only ~2x
	// better than unordered GraphMat at 10 threads.
	LaunchOverhead sim.Time
}

// NewGMatStar builds the kernel.
func NewGMatStar(g *graph.Graph, src int32, lgInterval uint) *GMatStarSSSP {
	k := &GMatStarSSSP{G: g, Src: src, Dist: make([]int64, g.N), LgInterval: lgInterval, LaunchOverhead: 100000}
	for i := range k.Dist {
		k.Dist[i] = math.MaxInt64 / 4
	}
	k.Dist[src] = 0
	return k
}

// Run executes the bucketed outer loop directly (it does not fit the
// single-frontier Program shape).
func (k *GMatStarSSSP) Run(cores []*cpu.Core, budget int64) Result {
	res := Result{}
	g := k.G
	pending := map[int32]bool{k.Src: true}
	var tr uops.Trace
	bucket := int64(0)
	for len(pending) > 0 {
		// Find the lowest non-empty bucket.
		bucket = math.MaxInt64
		for v := range pending {
			b := k.Dist[v] >> k.LgInterval
			if b < bucket {
				bucket = b
			}
		}
		// Run a full unordered kernel over this bucket until it drains.
		for {
			var active []int32
			for v := range pending {
				if k.Dist[v]>>k.LgInterval == bucket {
					active = append(active, v)
					delete(pending, v)
				}
			}
			if len(active) == 0 {
				break
			}
			// Determinism: map iteration order is random.
			slices.Sort(active)
			res.Iterations++
			// Kernel-launch overhead on every core: dispatch plus the
			// same dense per-iteration vector passes every GraphMat
			// kernel pays (the §3.1 reason GMat* needs much larger
			// bucket intervals than OBIM).
			densePhase(cores, g.N, &tr)
			for _, c := range cores {
				c.AdvanceIn(prof.RegionIdle, c.Now()+k.LaunchOverhead)
			}
			n := len(cores)
			chunk := (len(active) + n - 1) / n
			for c := 0; c < n; c++ {
				lo := c * chunk
				if lo >= len(active) {
					break
				}
				hi := lo + chunk
				if hi > len(active) {
					hi = len(active)
				}
				core := cores[c]
				scratch := uint64(0x8000 + c*512)
				for _, u := range active[lo:hi] {
					tr.Reset()
					du := k.Dist[u]
					tr.LoadPC(frontierPCBase+0x43, g.NodeAddr(u), true, false)
					elo, ehi := g.EdgeRange(u)
					for i := elo; i < ehi; i++ {
						v := g.Dests[i]
						nd := du + int64(g.Weights[i])
						tr.LoadPC(frontierPCBase+0x41, g.EdgeAddr(i), true, false)
						tr.LoadPC(frontierPCBase+0x42, g.NodeAddr(v), true, true)
						bookkeeping(&tr, scratch, 3, 10)
						improved := nd < k.Dist[v]
						tr.Branch(frontierPCBase+2, improved, true)
						if improved {
							k.Dist[v] = nd
							tr.Store(g.NodeAddr(v))
							pending[v] = true
						}
					}
					core.Run(tr.Ops)
					res.WorkItems++
				}
			}
			var maxT sim.Time
			for _, c := range cores {
				if c.Now() > maxT {
					maxT = c.Now()
				}
			}
			for _, c := range cores {
				c.AdvanceIn(prof.RegionIdle, maxT+20)
			}
			if budget > 0 && res.WorkItems > budget {
				res.TimedOut = true
				break
			}
		}
		if res.TimedOut {
			break
		}
	}
	for _, c := range cores {
		if c.Now() > res.Wall {
			res.Wall = c.Now()
		}
	}
	return res
}

// Verify checks the distances against the reference.
func (k *GMatStarSSSP) Verify() error {
	return verifyDist("gmat* sssp", k.G, k.Src, k.Dist)
}
