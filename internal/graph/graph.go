// Package graph provides the CSR graph substrate: the in-memory graph the
// algorithms actually traverse, the simulated address-space layout the
// cache model times (§6.2: standard CSR, 32B nodes — 64B for TC — and 16B
// edges), and generators producing synthetic equivalents of the paper's
// Table-1 inputs.
//
// Determinism contract: every generator is a pure function of (scale,
// seed) through the rng package's fixed algorithms, so two builds of the
// same input are identical graphs at identical simulated addresses — the
// foundation of the simulator's reproducible cycle counts.
package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// Layout constants matching §6.2.
const (
	NodeBytes   = 32
	NodeBytesTC = 64
	EdgeBytes   = 16
)

// AddrSpace is a bump allocator for simulated addresses. Regions are
// page-aligned so distinct structures never share a cache line or page.
type AddrSpace struct {
	next uint64
}

// NewAddrSpace starts allocating at a non-zero base (address 0 is reserved
// as a null sentinel).
func NewAddrSpace() *AddrSpace { return &AddrSpace{next: 1 << 20} }

// Alloc reserves size bytes aligned to a 4 KiB page and returns the base.
func (a *AddrSpace) Alloc(size uint64) uint64 {
	const page = 4096
	a.next = (a.next + page - 1) &^ (page - 1)
	base := a.next
	a.next += size
	return base
}

// Graph is a directed graph in CSR form. Undirected inputs store each edge
// in both directions.
type Graph struct {
	Name    string
	N       int
	Offsets []int32 // len N+1
	Dests   []int32 // len M
	Weights []int32 // len M or nil for unweighted

	nodeBytes uint64
	nodeBase  uint64
	edgeBase  uint64
}

// NumEdges returns the directed edge count.
func (g *Graph) NumEdges() int { return len(g.Dests) }

// Degree returns node v's out-degree.
func (g *Graph) Degree(v int32) int32 { return g.Offsets[v+1] - g.Offsets[v] }

// EdgeRange returns the CSR index range of v's outgoing edges.
func (g *Graph) EdgeRange(v int32) (lo, hi int32) { return g.Offsets[v], g.Offsets[v+1] }

// Bind assigns the graph's simulated addresses from the given address
// space, using 64B node records when tc is set (Triangle Counting stores
// hash-index metadata per node, §6.2).
func (g *Graph) Bind(as *AddrSpace, tc bool) {
	g.nodeBytes = NodeBytes
	if tc {
		g.nodeBytes = NodeBytesTC
	}
	g.nodeBase = as.Alloc(uint64(g.N) * g.nodeBytes)
	g.edgeBase = as.Alloc(uint64(len(g.Dests)) * EdgeBytes)
}

// NodeAddr returns the simulated address of node v's record.
func (g *Graph) NodeAddr(v int32) uint64 { return g.nodeBase + uint64(v)*g.nodeBytes }

// EdgeAddr returns the simulated address of the CSR edge at index i.
func (g *Graph) EdgeAddr(i int32) uint64 { return g.edgeBase + uint64(i)*EdgeBytes }

// SizeBytes returns the simulated memory footprint of the CSR arrays.
func (g *Graph) SizeBytes() uint64 {
	nb := g.nodeBytes
	if nb == 0 {
		nb = NodeBytes
	}
	return uint64(g.N)*nb + uint64(len(g.Dests))*EdgeBytes
}

// MaxDegreeNode returns the node with the most outgoing edges and its
// degree ("Largest Node" in Table 1).
func (g *Graph) MaxDegreeNode() (node int32, degree int32) {
	for v := int32(0); v < int32(g.N); v++ {
		if d := g.Degree(v); d > degree {
			node, degree = v, d
		}
	}
	return
}

// Builder accumulates an edge list and finalizes it into CSR form.
type Builder struct {
	n        int
	src, dst []int32
	w        []int32
	weighted bool
}

// NewBuilder creates a builder for n nodes; weighted enables per-edge
// weights.
func NewBuilder(n int, weighted bool) *Builder {
	return &Builder{n: n, weighted: weighted}
}

// reserve sizes the edge list for m more edges, so a generator that knows
// its edge count up front never regrows it. Each regrowth leaves the old
// list behind as garbage, which sets the process's peak resident set
// whenever the collector falls behind.
func (b *Builder) reserve(m int) {
	b.src = slices.Grow(b.src, m)
	b.dst = slices.Grow(b.dst, m)
	if b.weighted {
		b.w = slices.Grow(b.w, m)
	}
}

// AddEdge appends a directed edge.
func (b *Builder) AddEdge(s, d int32) {
	b.src = append(b.src, s)
	b.dst = append(b.dst, d)
	if b.weighted {
		b.w = append(b.w, 1)
	}
}

// AddWeighted appends a directed weighted edge.
func (b *Builder) AddWeighted(s, d, w int32) {
	if !b.weighted {
		panic("graph: AddWeighted on unweighted builder")
	}
	b.src = append(b.src, s)
	b.dst = append(b.dst, d)
	b.w = append(b.w, w)
}

// AddUndirected appends the edge in both directions.
func (b *Builder) AddUndirected(a, c int32) {
	b.AddEdge(a, c)
	b.AddEdge(c, a)
}

// AddUndirectedWeighted appends a weighted edge in both directions.
func (b *Builder) AddUndirectedWeighted(a, c, w int32) {
	b.AddWeighted(a, c, w)
	b.AddWeighted(c, a, w)
}

// Build sorts, deduplicates, and produces the CSR graph.
func (b *Builder) Build(name string) *Graph {
	m := len(b.src)
	// Counting sort by source for determinism and speed.
	counts := make([]int32, b.n+1)
	for _, s := range b.src {
		counts[s+1]++
	}
	for i := 0; i < b.n; i++ {
		counts[i+1] += counts[i]
	}
	order := make([]int32, m)
	next := make([]int32, b.n)
	for i := 0; i < m; i++ {
		s := b.src[i]
		order[counts[s]+next[s]] = int32(i)
		next[s]++
	}

	g := &Graph{Name: name, N: b.n}
	g.Offsets = make([]int32, b.n+1)
	g.Dests = make([]int32, 0, m)
	if b.weighted {
		g.Weights = make([]int32, 0, m)
	}
	idx := 0
	for v := 0; v < b.n; v++ {
		start := counts[v]
		end := counts[v+1]
		row := order[start:end]
		// Sort each row by destination and drop duplicates/self-loops.
		slices.SortFunc(row, func(x, y int32) int { return cmp.Compare(b.dst[x], b.dst[y]) })
		prev := int32(-1)
		for _, ei := range row {
			d := b.dst[ei]
			if d == int32(v) || d == prev {
				continue
			}
			prev = d
			g.Dests = append(g.Dests, d)
			if b.weighted {
				g.Weights = append(g.Weights, b.w[ei])
			}
			idx++
		}
		g.Offsets[v+1] = int32(idx)
	}
	return g
}

// Validate checks CSR invariants; tests and generators call it.
func (g *Graph) Validate() error {
	if len(g.Offsets) != g.N+1 {
		return fmt.Errorf("graph %s: offsets len %d, want %d", g.Name, len(g.Offsets), g.N+1)
	}
	if g.Offsets[0] != 0 || int(g.Offsets[g.N]) != len(g.Dests) {
		return fmt.Errorf("graph %s: offset bounds [%d..%d] vs %d edges", g.Name, g.Offsets[0], g.Offsets[g.N], len(g.Dests))
	}
	for v := 0; v < g.N; v++ {
		if g.Offsets[v] > g.Offsets[v+1] {
			return fmt.Errorf("graph %s: negative row %d", g.Name, v)
		}
	}
	for i, d := range g.Dests {
		if d < 0 || int(d) >= g.N {
			return fmt.Errorf("graph %s: edge %d dest %d out of range", g.Name, i, d)
		}
	}
	if g.Weights != nil && len(g.Weights) != len(g.Dests) {
		return fmt.Errorf("graph %s: %d weights vs %d edges", g.Name, len(g.Weights), len(g.Dests))
	}
	return nil
}

// BFSFrom returns hop distances from src (-1 if unreachable) — the
// reference implementation used for verification and diameter estimates.
func (g *Graph) BFSFrom(src int32) []int32 {
	dist := make([]int32, g.N)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	frontier := []int32{src}
	for len(frontier) > 0 {
		var next []int32
		for _, v := range frontier {
			lo, hi := g.EdgeRange(v)
			for e := lo; e < hi; e++ {
				d := g.Dests[e]
				if dist[d] < 0 {
					dist[d] = dist[v] + 1
					next = append(next, d)
				}
			}
		}
		frontier = next
	}
	return dist
}

// EstimateDiameter runs a double-sweep BFS from src: the eccentricity of
// the farthest node found is a lower bound that is tight in practice
// ("Est. Diam." in Table 1).
func (g *Graph) EstimateDiameter(src int32) int32 {
	far, d := farthest(g.BFSFrom(src))
	if d <= 0 {
		return 0
	}
	_, d2 := farthest(g.BFSFrom(far))
	if d2 > d {
		d = d2
	}
	return d
}

func farthest(dist []int32) (node, d int32) {
	for v, dv := range dist {
		if dv > d {
			node, d = int32(v), dv
		}
	}
	return
}
