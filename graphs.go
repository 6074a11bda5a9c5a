package minnow

import (
	"fmt"
	"io"

	"minnow/internal/graph"
	"minnow/internal/harness"
	"minnow/internal/kernels"
)

// Graph is an immutable CSR graph usable with RunGraph. Construct one
// with a generator (NewRoadMesh etc.), LoadGraph, or NewGraphFromEdges.
type Graph struct {
	g *graph.Graph
}

// Name returns the graph's label.
func (g *Graph) Name() string { return g.g.Name }

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return g.g.N }

// NumEdges returns the directed edge count.
func (g *Graph) NumEdges() int { return g.g.NumEdges() }

// Weighted reports whether the graph carries edge weights.
func (g *Graph) Weighted() bool { return g.g.Weights != nil }

// View returns the read-only structural view used by custom prefetch
// functions.
func (g *Graph) View() GraphView { return harness.NewGraphView(g.g) }

// Save writes the graph in the binary CSR format understood by LoadGraph
// and `graphgen -save`.
func (g *Graph) Save(w io.Writer) error { return g.g.Save(w) }

// LoadGraph reads a binary CSR graph written by Save.
func LoadGraph(r io.Reader) (*Graph, error) {
	gg, err := graph.Load(r)
	if err != nil {
		return nil, err
	}
	return &Graph{g: gg}, nil
}

// Edge is one directed edge for NewGraphFromEdges. Weight is ignored
// unless weighted graphs are requested.
type Edge struct {
	From, To int32 // endpoint node IDs
	Weight   int32 // edge weight (weighted graphs only)
}

// NewGraphFromEdges builds a CSR graph from an edge list (duplicates and
// self-loops are dropped; rows are sorted by destination).
func NewGraphFromEdges(name string, nodes int, edges []Edge, weighted bool) (*Graph, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("minnow: graph needs at least one node")
	}
	b := graph.NewBuilder(nodes, weighted)
	for _, e := range edges {
		if e.From < 0 || int(e.From) >= nodes || e.To < 0 || int(e.To) >= nodes {
			return nil, fmt.Errorf("minnow: edge %d->%d out of range [0,%d)", e.From, e.To, nodes)
		}
		if weighted {
			w := e.Weight
			if w <= 0 {
				w = 1
			}
			b.AddWeighted(e.From, e.To, w)
		} else {
			b.AddEdge(e.From, e.To)
		}
	}
	g := b.Build(name)
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// Generators mirroring the Table-1 input classes, exposed for users who
// want to run the kernels on differently-sized inputs.

// NewRoadMesh generates a weighted road-network-like mesh (USA-road
// class: high diameter, degree ~4).
func NewRoadMesh(nodes int, seed uint64) *Graph {
	return &Graph{g: graph.RoadMesh(nodes, seed)}
}

// NewUniformRandom generates an r4-class uniform random graph.
func NewUniformRandom(nodes, avgDegree int, seed uint64) *Graph {
	return &Graph{g: graph.UniformRandom(nodes, avgDegree, seed)}
}

// NewKronecker generates a Graph500-class R-MAT graph of 2^scale nodes.
func NewKronecker(scale, edgeFactor int, seed uint64) *Graph {
	return &Graph{g: graph.Kronecker(scale, edgeFactor, seed)}
}

// NewSmallWorld generates a wikipedia-class small-world graph.
func NewSmallWorld(nodes, degree int, seed uint64) *Graph {
	return &Graph{g: graph.SmallWorld(nodes, degree, seed)}
}

// NewPowerLawTalk generates a wiki-Talk-class skewed directed graph.
func NewPowerLawTalk(nodes int, seed uint64) *Graph {
	return &Graph{g: graph.PowerLawTalk(nodes, seed)}
}

// NewCommunityGraph generates a com-dblp-class clique-community graph
// (triangle-rich).
func NewCommunityGraph(nodes int, seed uint64) *Graph {
	return &Graph{g: graph.CommunityDBLP(nodes, seed)}
}

// NewBipartite generates an amazon-ratings-class bipartite graph (users
// first, then items).
func NewBipartite(users, items int, seed uint64) *Graph {
	return &Graph{g: graph.Bipartite(users, items, seed)}
}

// RunGraph simulates a benchmark kernel over a user-provided graph.
// Requirements per kernel: SSSP needs a weighted graph; BC expects the
// graph to be checked for 2-colorability (non-bipartite inputs report a
// conflict rather than failing); TC treats the graph as undirected.
// Source-based kernels (SSSP, BFS, G500) start from node `source`
// (ignored by the others).
func RunGraph(benchmark string, g *Graph, source int32, cfg Config) (*Result, error) {
	if g == nil || g.g == nil {
		return nil, fmt.Errorf("minnow: nil graph")
	}
	if source < 0 || int(source) >= g.g.N {
		return nil, fmt.Errorf("minnow: source %d out of range [0,%d)", source, g.g.N)
	}
	spec, err := kernels.SpecByName(benchmark)
	if err != nil {
		return nil, err
	}
	if spec.Weighted && g.g.Weights == nil {
		return nil, fmt.Errorf("minnow: %s requires a weighted graph (see NewRoadMesh or NewGraphFromEdges weighted=true)", benchmark)
	}
	// The run binds a fresh clone of the user's topology into its own
	// address space. CSR slices are shared read-only.
	user := g.g
	spec.Input = func(int, uint64) *graph.Graph {
		return &graph.Graph{Name: user.Name, N: user.N, Offsets: user.Offsets, Dests: user.Dests, Weights: user.Weights}
	}
	spec.Source = func(*graph.Graph) int32 { return source }
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r, err := harness.Run(spec, harness.Options{Config: cfg})
	if err != nil {
		return nil, err
	}
	return resultFrom(benchmark, r), nil
}
