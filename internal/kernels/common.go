// Package kernels implements the paper's seven benchmarks (Table 2) as
// Galois operators: SSSP (delta-stepping), BFS, G500 (BFS on a Kronecker
// graph), CC (minimum-label propagation), PR (push-based data-driven
// PageRank), TC (node-iterator-hashed triangle counting), and BC
// (bipartite coloring).
//
// Each operator really executes its algorithm over Go state — so
// convergence, work efficiency, and priority sensitivity are genuine —
// while emitting the micro-ops a compiled implementation would: first
// accesses to task/node/edge data are delinquent loads, everything else
// (loop bookkeeping, stack spills/fills, secondary field reads — the ~90%
// of loads §3.4 measures) is non-delinquent traffic against the worker's
// stack lines. Every kernel verifies its answer against an independent
// reference implementation.
//
// Suite and Extensions in registry.go are the one place a benchmark is
// declared: each Spec names its input generator, node layout, source,
// tuned bucket interval, prefetch program and constructor, and every
// caller (the harness, RunGraph, the GraphMat baseline, the figure
// tables) reads them from there.
//
// Determinism contract: operators read and write only their own algorithm
// state plus the worker handed to them; any randomness comes from rng
// streams seeded by the run configuration, so task orders and emitted
// micro-op sequences are reproducible run to run.
package kernels

import (
	"strconv"

	"minnow/internal/galois"
	"minnow/internal/graph"
	"minnow/internal/worklist"
)

// Kernel is one benchmark ready to run: its constructor allocates
// per-core stacks and initializes algorithm state; Apply is the Galois
// operator; Verify checks the parallel result against a reference.
type Kernel interface {
	galois.Operator
	Graph() *graph.Graph
	// InitialTasks seeds the worklist.
	InitialTasks() []worklist.Task
	// Verify checks the computed result; call after the run drains.
	Verify() error
}

// stackLines is how many distinct stack cache lines each worker's locals
// rotate through.
const stackLines = 4

// emitter wraps a worker with address-aware micro-op helpers.
type emitter struct {
	w     *galois.Worker
	g     *graph.Graph
	stack uint64 // worker stack base
	pcb   uint64 // kernel PC namespace (load sites for prefetcher training)
	srot  int    // rotates stack-line usage
}

func newEmitter(w *galois.Worker, g *graph.Graph, stackBase []uint64, pcb uint64) emitter {
	return emitter{w: w, g: g, stack: stackBase[w.Core.ID], pcb: pcb}
}

// Load-site PC offsets within a kernel's namespace (branch sites use 1..63).
const (
	pcLoadEdge   = 0x41 // streaming edge-record loads (IMP's index array)
	pcLoadDest   = 0x42 // edge-dependent destination-node loads (A[B[i]])
	pcLoadSrc    = 0x43 // the task's own node record
	pcLoadSearch = 0x44 // binary-search probes (TC)
)

// locals emits the non-delinquent register-spill/stack traffic of loop
// bookkeeping: nLoads reads and nStores writes over the worker's stack
// lines, plus nCompute ALU ops.
func (e *emitter) locals(nLoads, nStores, nCompute int) {
	tr := e.w.TR()
	for i := 0; i < nLoads; i++ {
		e.srot++
		tr.Load(e.stack+uint64(e.srot%stackLines)*64, false, false)
	}
	for i := 0; i < nStores; i++ {
		e.srot++
		tr.Store(e.stack + uint64(e.srot%stackLines)*64)
	}
	if nCompute > 0 {
		tr.Compute(nCompute)
	}
}

// loadNode emits the (delinquent) first access to a node record.
func (e *emitter) loadNode(v int32, depLoad bool) {
	site := uint64(pcLoadSrc)
	if depLoad {
		site = pcLoadDest
	}
	e.w.TR().LoadPC(e.pcb+site, e.g.NodeAddr(v), true, depLoad)
}

// loadEdge emits the (delinquent) first access to an edge record.
func (e *emitter) loadEdge(i int32) {
	e.w.TR().LoadPC(e.pcb+pcLoadEdge, e.g.EdgeAddr(i), true, false)
}

// storeNode emits a plain store to a node record.
func (e *emitter) storeNode(v int32) {
	e.w.TR().Store(e.g.NodeAddr(v))
}

// atomicNode emits a read-modify-write on a node record (or a plain
// store under the serial-baseline's atomic elision).
func (e *emitter) atomicNode(v int32) {
	if e.w.Ctx.Serial {
		e.w.TR().Load(e.g.NodeAddr(v), false, false)
		e.w.TR().Store(e.g.NodeAddr(v))
	} else {
		e.w.TR().Atomic(e.g.NodeAddr(v))
	}
}

// branch emits a data-dependent conditional branch.
func (e *emitter) branch(pc uint64, taken, depLoad bool) {
	e.w.TR().Branch(pc, taken, depLoad)
}

// allocStacks reserves per-core stack regions.
func allocStacks(as *graph.AddrSpace, cores int) []uint64 {
	s := make([]uint64, cores)
	for i := range s {
		s[i] = as.Alloc(stackLines * 64)
	}
	return s
}

// taskRange resolves a task's edge range, honoring task splitting.
func taskRange(g *graph.Graph, t worklist.Task) (lo, hi int32) {
	lo, hi = g.EdgeRange(t.Node)
	if !t.WholeNode() {
		base := g.Offsets[t.Node]
		lo, hi = base+t.EdgeLo, base+t.EdgeHi
	}
	return
}

// pcBase assigns each kernel a distinct branch-site PC namespace.
func pcBase(kernelID uint64) uint64 { return kernelID << 8 }

// kernelOfPC names the kernel namespace a static PC belongs to (the
// inverse of pcBase).
func kernelOfPC(pc uint64) string {
	switch pc >> 8 {
	case 1:
		return "sssp"
	case 2:
		return "bfs"
	case 3:
		return "cc"
	case 4:
		return "pr"
	case 5:
		return "tc"
	case 6:
		return "bc"
	case 8:
		return "kcore"
	}
	return "pc" + strconv.FormatUint(pc>>8, 10)
}

// SiteLabel names a kernel static micro-op site (the PCs LoadPC/Branch
// emit) for profiler output: "sssp.edge-load", "tc.search-load",
// "bfs.branch1". The harness wires it into the profile as the
// PC-flavored site vocabulary.
func SiteLabel(pc uint64) string {
	k := kernelOfPC(pc)
	switch pc & 0xff {
	case pcLoadEdge:
		return k + ".edge-load"
	case pcLoadDest:
		return k + ".dest-load"
	case pcLoadSrc:
		return k + ".node-load"
	case pcLoadSearch:
		return k + ".search-load"
	}
	return k + ".branch" + strconv.FormatUint(pc&0xff, 10)
}
