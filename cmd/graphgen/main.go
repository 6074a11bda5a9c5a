// Command graphgen generates and inspects the synthetic graph inputs,
// including the Table-1 inventory.
//
// Usage:
//
//	graphgen table1
//	graphgen -kind road -n 22500 -seed 42
package main

import (
	"flag"
	"fmt"
	"os"

	"minnow"
	"minnow/internal/graph"
	"minnow/internal/stats"
)

func main() {
	var (
		kind = flag.String("kind", "road", "generator: road, random, kron, smallworld, talk, dblp, bipartite")
		n    = flag.Int("n", 10000, "node count (kron: rounded up to a power of two)")
		seed = flag.Uint64("seed", 42, "generator seed")
		save = flag.String("save", "", "write the generated graph in binary CSR form")
	)
	flag.Parse()

	if flag.Arg(0) == "table1" {
		text, _, err := minnow.RenderFigure("table1", minnow.FigureOptions{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "graphgen:", err)
			os.Exit(1)
		}
		fmt.Print(text)
		return
	}

	var g *graph.Graph
	switch *kind {
	case "road":
		g = graph.RoadMesh(*n, *seed)
	case "random":
		g = graph.UniformRandom(*n, 4, *seed)
	case "kron":
		scale := 1
		for 1<<scale < *n {
			scale++
		}
		g = graph.Kronecker(scale, 16, *seed)
	case "smallworld":
		g = graph.SmallWorld(*n, 6, *seed)
	case "talk":
		g = graph.PowerLawTalk(*n, *seed)
	case "dblp":
		g = graph.CommunityDBLP(*n, *seed)
	case "bipartite":
		g = graph.Bipartite(*n, *n/2, *seed)
	default:
		fmt.Fprintf(os.Stderr, "graphgen: unknown kind %q\n", *kind)
		os.Exit(1)
	}
	if err := g.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "graphgen:", err)
		os.Exit(1)
	}
	node, deg := g.MaxDegreeNode()
	var degSum int64
	hist := stats.NewHistogram(1, 2, 4, 8, 16, 64, 256, 4096)
	for v := int32(0); v < int32(g.N); v++ {
		d := g.Degree(v)
		degSum += int64(d)
		hist.Add(int64(d))
	}
	fmt.Printf("graph       %s\n", g.Name)
	fmt.Printf("nodes       %d\n", g.N)
	fmt.Printf("edges       %d (directed)\n", g.NumEdges())
	fmt.Printf("avg degree  %.2f\n", float64(degSum)/float64(g.N))
	fmt.Printf("max degree  %d (node %d)\n", deg, node)
	fmt.Printf("est. diam   %d\n", g.EstimateDiameter(0))
	fmt.Printf("size        %.1f MB (32B nodes, 16B edges)\n", float64(g.SizeBytes())/1e6)
	fmt.Printf("degree histogram (upper bounds %v): %v\n", hist.Bounds, hist.Counts)
	ds := g.Degrees()
	fmt.Printf("degree p50/p90/p99  %d / %d / %d (isolated %d)\n", ds.P50, ds.P90, ds.P99, ds.Isolated)
	_, comps := g.Components()
	fmt.Printf("components  %d\n", comps)
	fmt.Printf("clustering  %.4f\n", g.ClusteringCoefficient())
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			fmt.Fprintln(os.Stderr, "graphgen:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := g.Save(f); err != nil {
			fmt.Fprintln(os.Stderr, "graphgen:", err)
			os.Exit(1)
		}
		fmt.Printf("saved       %s\n", *save)
	}
}
