package graph

import "math"

// Structural analytics used by graphgen and the input-validation tests:
// degree statistics and clustering. These read the CSR only and are
// independent of the simulator; the reference answers they share with
// the kernels (Components, Triangles) live in reference.go.

// DegreeStats summarizes the out-degree distribution.
type DegreeStats struct {
	Min, Max int32
	Mean     float64
	// P50/P90/P99 are nearest-rank percentile out-degrees: the
	// ⌈p·N⌉-th smallest, the rule stats.Percentile uses.
	P50, P90, P99 int32
	Isolated      int // nodes with no outgoing edges
}

// Degrees computes the degree distribution summary.
func (g *Graph) Degrees() DegreeStats {
	if g.N == 0 {
		return DegreeStats{}
	}
	counts := make([]int64, 0)
	maxDeg := int32(0)
	for v := int32(0); v < int32(g.N); v++ {
		if d := g.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	counts = make([]int64, maxDeg+1)
	st := DegreeStats{Min: maxDeg, Max: maxDeg}
	var sum int64
	for v := int32(0); v < int32(g.N); v++ {
		d := g.Degree(v)
		counts[d]++
		sum += int64(d)
		if d < st.Min {
			st.Min = d
		}
		if d == 0 {
			st.Isolated++
		}
	}
	st.Mean = float64(sum) / float64(g.N)
	pct := func(p float64) int32 {
		rank := int64(math.Ceil(p / 100 * float64(g.N)))
		var acc int64
		for d := int32(0); d <= maxDeg; d++ {
			acc += counts[d]
			if acc >= rank {
				return d
			}
		}
		return maxDeg
	}
	st.P50, st.P90, st.P99 = pct(50), pct(90), pct(99)
	return st
}

// ClusteringCoefficient returns the global clustering coefficient
// (3 x triangles / open wedges) over the graph treated as undirected with
// sorted adjacency lists. O(sum d^2) — intended for the generator-scale
// graphs used here.
func (g *Graph) ClusteringCoefficient() float64 {
	var wedges int64
	for u := int32(0); u < int32(g.N); u++ {
		d := int64(g.Degree(u))
		wedges += d * (d - 1) / 2
	}
	if wedges == 0 {
		return 0
	}
	// Each triangle closes 3 wedges; Triangles counts it once.
	return 3 * float64(g.Triangles()) / float64(wedges)
}
