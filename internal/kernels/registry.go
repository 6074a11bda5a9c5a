package kernels

import (
	"fmt"

	"minnow/internal/core"
	"minnow/internal/graph"
	"minnow/internal/graphmat"
	"minnow/internal/worklist"
)

// Arrivable kernels accept open-loop task arrivals mid-run: ArrivalTask
// constructs a re-evaluation task for the node at its *current*
// algorithm state. The task must be idempotent with respect to the
// final answer — at the fixpoint it is a no-op (SSSP/BFS skip it as
// stale or find nothing to relax, CC/KCORE propagate nothing new, PR
// sees an empty residual) and before the fixpoint it only performs work
// the algorithm's chaotic iteration already permits — so Verify still
// passes on open-loop runs. Kernels whose operator is not re-entrant
// (TC and BC count each node exactly once) deliberately do not
// implement it, and the harness rejects arrival plans for them.
type Arrivable interface {
	ArrivalTask(node int32) worklist.Task
}

// Spec declares one benchmark, once: its input, its layout, its tuning,
// its constructor and its GraphMat program. Run, RunGraph, the GraphMat
// baseline and the figure tables all read these fields; none keeps a
// second copy.
type Spec struct {
	Name       string // SSSP, BFS, G500, CC, PR, TC, BC, KCORE
	PaperInput string // the Table-1 input this stands in for
	// Input generates the (scaled) input graph, not yet bound.
	Input func(scale int, seed uint64) *graph.Graph
	// WideNodes binds 64B node records (TC's hash-index metadata, §6.2).
	WideNodes bool
	// Weighted marks a kernel that needs edge weights.
	Weighted bool
	// Source picks a source-based kernel's start node; nil means node 0.
	Source func(g *graph.Graph) int32
	// LgInterval is the tuned OBIM bucket interval (log2): the delta in
	// delta-stepping terms, scaled to the kernel's priority units.
	LgInterval uint
	// Program builds the worklist-directed prefetch program; nil means
	// the standard program, which §5.3 gives every workload but TC.
	Program func(g *graph.Graph) core.PrefetchProgram
	// New constructs the kernel on a bound graph. cores sizes per-core
	// stack regions.
	New func(g *graph.Graph, src int32, as *graph.AddrSpace, cores int) Kernel
	// GraphMat builds the benchmark's program for the GraphMat baseline
	// (§3.1) on a bound graph; nil means GraphMat has none.
	GraphMat func(g *graph.Graph, src int32) graphmat.Program
}

// Graph generates the input and binds its addresses from as.
func (s Spec) Graph(scale int, seed uint64, as *graph.AddrSpace) *graph.Graph {
	g := s.Input(scale, seed)
	g.Bind(as, s.WideNodes)
	return g
}

// SourceNode resolves Source on g.
func (s Spec) SourceNode(g *graph.Graph) int32 {
	if s.Source == nil {
		return 0
	}
	return s.Source(g)
}

// Build generates and binds the input, then constructs the kernel, whose
// per-core stacks follow the graph in as.
func (s Spec) Build(scale int, seed uint64, as *graph.AddrSpace, cores int) Kernel {
	g := s.Graph(scale, seed, as)
	return s.New(g, s.SourceNode(g), as, cores)
}

// PrefetchProgram returns the kernel's prefetch program over g.
func (s Spec) PrefetchProgram(g *graph.Graph) core.PrefetchProgram {
	if s.Program == nil {
		return &core.StandardProgram{G: g}
	}
	return s.Program(g)
}

// Suite returns the seven Table-2 benchmarks. scale multiplies the
// default (laptop-sized) inputs; scale=1 gives graphs of roughly
// 4K-60K nodes, chosen so that with the harness's scaled-down cache
// hierarchy each input is DRAM-resident the way the paper's 150MB-1GB
// inputs were — except TC's, which fits in the LLC as in the paper
// ("a small input had to be selected for TC ... fitting within LLC").
func Suite() []Spec {
	return []Spec{
		{
			Name:       "SSSP",
			PaperInput: "USA-road-d.W",
			Input:      func(scale int, seed uint64) *graph.Graph { return graph.RoadMesh(22500*scale, seed) },
			Weighted:   true,
			// Edge weights are uniform in [1,1000], so a delta of 1024
			// approximates the classic "delta ~ max weight" tuning.
			LgInterval: 10,
			New: func(g *graph.Graph, src int32, as *graph.AddrSpace, cores int) Kernel {
				return NewSSSP(g, src, as, cores)
			},
			GraphMat: func(g *graph.Graph, src int32) graphmat.Program { return graphmat.NewSSSP(g, src) },
		},
		{
			Name:       "BFS",
			PaperInput: "r4-2e23",
			Input:      func(scale int, seed uint64) *graph.Graph { return graph.UniformRandom(24576*scale, 4, seed) },
			// Hop counts are unit-weight priorities; each level is its
			// own bucket.
			LgInterval: 0,
			New:        newBFS,
			GraphMat:   gmatBFS,
		},
		{
			Name:       "G500",
			PaperInput: "rmat16-2e22",
			Input: func(scale int, seed uint64) *graph.Graph {
				s := 13
				for sc := scale; sc > 1; sc /= 2 {
					s++
				}
				return graph.Kronecker(s, 16, seed)
			},
			Source:     kroneckerRoot,
			LgInterval: 0, // as BFS
			New:        newBFS,
			GraphMat:   gmatBFS,
		},
		{
			Name:       "CC",
			PaperInput: "wikipedia-20051105",
			Input:      func(scale int, seed uint64) *graph.Graph { return graph.SmallWorld(12288*scale, 6, seed) },
			// Min-label propagation needs fine buckets: wide buckets let
			// hundreds of label floods interleave and work explodes. The
			// cost is constant bucket churn, which is exactly why CC is
			// the paper's worklist-bound benchmark (92% worklist cycles
			// at 64t, §3.2).
			LgInterval: 2,
			New: func(g *graph.Graph, _ int32, as *graph.AddrSpace, cores int) Kernel {
				return NewCC(g, as, cores)
			},
			GraphMat: func(g *graph.Graph, _ int32) graphmat.Program { return graphmat.NewCC(g) },
		},
		{
			Name:       "PR",
			PaperInput: "wiki-Talk",
			Input:      func(scale int, seed uint64) *graph.Graph { return graph.PowerLawTalk(16384*scale, seed) },
			// Residual priorities are scaled by 1e7; 2^18 buckets group
			// residuals ~0.026 apart.
			LgInterval: 18,
			New: func(g *graph.Graph, _ int32, as *graph.AddrSpace, cores int) Kernel {
				return NewPR(g, as, cores)
			},
			// GraphMat's sweeps stop once a sweep moves the ranks less
			// than 1e-3 in L1.
			GraphMat: func(g *graph.Graph, _ int32) graphmat.Program { return graphmat.NewPR(g, PRDamping, 1e-3) },
		},
		{
			Name:       "TC",
			PaperInput: "com-dblp-sym",
			Input:      func(scale int, seed uint64) *graph.Graph { return graph.CommunityDBLP(3072*scale, seed) },
			WideNodes:  true,
			LgInterval: 0, // no priorities
			// The custom TC prefetch function (§5.3) also covers
			// destination adjacency lists.
			Program: func(g *graph.Graph) core.PrefetchProgram { return &core.StandardProgram{G: g, ListLines: 4} },
			New: func(g *graph.Graph, _ int32, as *graph.AddrSpace, cores int) Kernel {
				return NewTC(g, as, cores)
			},
		},
		{
			Name:       "BC",
			PaperInput: "amazon-ratings",
			Input: func(scale int, seed uint64) *graph.Graph {
				return graph.Bipartite(10240*scale, 5120*scale, seed)
			},
			LgInterval: 0, // no priorities
			New: func(g *graph.Graph, _ int32, as *graph.AddrSpace, cores int) Kernel {
				return NewBC(g, as, cores)
			},
		},
	}
}

// Extensions returns workloads beyond the paper's Table 2 — the §8
// future-work direction of running other irregular-algorithm classes on
// the same engines.
func Extensions() []Spec {
	return []Spec{
		{
			Name:       "KCORE",
			PaperInput: "(extension: k-core decomposition)",
			Input:      func(scale int, seed uint64) *graph.Graph { return graph.SmallWorld(10240*scale, 8, seed) },
			// Estimates are small integers. The standard Fig. 14
			// prefetch program covers the h-index recomputation's
			// accesses (node, edges, neighbor records).
			LgInterval: 1,
			New: func(g *graph.Graph, _ int32, as *graph.AddrSpace, cores int) Kernel {
				return NewKCore(g, as, cores)
			},
		},
	}
}

// SpecByName finds a suite or extension entry.
func SpecByName(name string) (Spec, error) {
	for _, s := range Suite() {
		if s.Name == name {
			return s, nil
		}
	}
	for _, s := range Extensions() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("kernels: unknown benchmark %q", name)
}

// kroneckerRoot picks a BFS source in the Kronecker graph's giant
// component: the highest-degree node (the hub is always in it).
func kroneckerRoot(g *graph.Graph) int32 {
	n, _ := g.MaxDegreeNode()
	return n
}

// newBFS adapts NewBFS to Spec.New.
func newBFS(g *graph.Graph, src int32, as *graph.AddrSpace, cores int) Kernel {
	return NewBFS(g, src, as, cores)
}

// gmatBFS is BFS's and G500's GraphMat program.
func gmatBFS(g *graph.Graph, src int32) graphmat.Program { return graphmat.NewBFS(g, src) }
