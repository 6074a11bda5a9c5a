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

// Build produces the CSR graph in O(n+m) time with two stable counting
// sorts: the first buckets the edges by destination, the second by
// source, so every row comes out sorted by destination with equal
// destinations in the order they were added. Self-loops are dropped, and
// so is every repeat of a (source, destination) pair: for a weighted
// graph the weight added first survives. The builder is left unchanged,
// so Build may be called again.
func (b *Builder) Build(name string) *Graph {
	n, m := b.n, len(b.src)
	// rowEnd[s] and colEnd[d] count source s's and destination d's edges,
	// then become the running write cursors of the two scatters; each
	// cursor ends at its bucket's end, the next bucket's start.
	ends := make([]int32, 2*n)
	rowEnd, colEnd := ends[:n], ends[n:]
	for i := 0; i < m; i++ {
		rowEnd[b.src[i]]++
		colEnd[b.dst[i]]++
	}
	exclusiveSum(rowEnd)
	exclusiveSum(colEnd)

	// Pass 1: scatter each edge's source (and weight) into its
	// destination's bucket; the bucket itself records the destination.
	bySrc := make([]int32, m)
	var byW []int32
	if b.weighted {
		byW = make([]int32, m)
	}
	for i := 0; i < m; i++ {
		p := colEnd[b.dst[i]]
		colEnd[b.dst[i]] = p + 1
		bySrc[p] = b.src[i]
		if byW != nil {
			byW[p] = b.w[i]
		}
	}

	// Pass 2: walk the destination buckets in order and scatter each edge
	// into its source's row.
	g := &Graph{Name: name, N: n, Offsets: make([]int32, n+1), Dests: make([]int32, m)}
	if b.weighted {
		g.Weights = make([]int32, m)
	}
	p := int32(0)
	for d := int32(0); d < int32(n); d++ {
		for ; p < colEnd[d]; p++ {
			s := bySrc[p]
			q := rowEnd[s]
			rowEnd[s] = q + 1
			g.Dests[q] = d
			if byW != nil {
				g.Weights[q] = byW[p]
			}
		}
	}

	// Compact in place, dropping self-loops and repeats; the write index
	// never passes the read index.
	out, lo := int32(0), int32(0)
	for v := int32(0); v < int32(n); v++ {
		prev := int32(-1)
		for i := lo; i < rowEnd[v]; i++ {
			d := g.Dests[i]
			if d == v || d == prev {
				continue
			}
			prev = d
			g.Dests[out] = d
			if g.Weights != nil {
				g.Weights[out] = g.Weights[i]
			}
			out++
		}
		lo = rowEnd[v]
		g.Offsets[v+1] = out
	}
	g.Dests = g.Dests[:out]
	if g.Weights != nil {
		g.Weights = g.Weights[:out]
	}
	return g
}

// exclusiveSum turns per-bucket counts into each bucket's start index.
func exclusiveSum(c []int32) {
	sum := int32(0)
	for i, x := range c {
		c[i] = sum
		sum += x
	}
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
