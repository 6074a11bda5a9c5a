package graph

import "testing"

// BenchmarkBuild measures one generator call, edge generation and
// Builder.Build together, on each of perfbench's sim inputs at scale 4:
// the road mesh of SSSP, the hub-heavy power-law graph of PR (a few
// hundred rows of thousands of edges) and the small world of CC.
func BenchmarkBuild(b *testing.B) {
	for _, c := range []struct {
		name string
		gen  func() *Graph
	}{
		{"RoadMesh", func() *Graph { return RoadMesh(90000, 1) }},
		{"PowerLawTalk", func() *Graph { return PowerLawTalk(65536, 1) }},
		{"SmallWorld", func() *Graph { return SmallWorld(49152, 6, 1) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			edges := -1
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := c.gen()
				if err := g.Validate(); err != nil {
					b.Fatal(err)
				}
				if edges < 0 {
					edges = g.NumEdges()
				} else if g.NumEdges() != edges {
					b.Fatalf("build %d has %d edges, the first had %d", i, g.NumEdges(), edges)
				}
			}
		})
	}
}
