// Benchmarks: one sub-benchmark per table and figure of the paper's
// evaluation section. Each regenerates its artifact in quick mode (8
// simulated cores, trimmed sweeps); `go run ./cmd/figures` produces the
// full 64-core versions. The per-op time is the host cost of the
// simulated experiment; sim-side metrics are attached via ReportMetric.
package minnow

import (
	"testing"

	"minnow/internal/harness"
	"minnow/internal/kernels"
)

// quickFig is the benchmarks' figure configuration.
var quickFig = FigureOptions{Threads: 8, Scale: 1, Quick: true}

// BenchmarkFigures regenerates each figure, as text and CSV, under
// BenchmarkFigures/<name>.
func BenchmarkFigures(b *testing.B) {
	for _, name := range Figures() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				text, csv, err := RenderFigure(name, quickFig)
				if err != nil {
					b.Fatal(err)
				}
				if len(text) == 0 || len(csv) == 0 {
					b.Fatal("empty table")
				}
			}
		})
	}
}

func BenchmarkFig16OverallSpeedup(b *testing.B) {
	// The headline experiment; also surfaces the measured speedups as
	// custom metrics.
	spec, _ := kernels.SpecByName("SSSP")
	for i := 0; i < b.N; i++ {
		base := harness.Options{Config: Config{Threads: quickFig.Threads, Scale: quickFig.Scale, SplitThreshold: 2048}}
		sw, err := harness.Run(spec, base)
		if err != nil {
			b.Fatal(err)
		}
		om := base
		om.Scheduler = "minnow"
		om.Prefetch = true
		mn, err := harness.Run(spec, om)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(sw.WallCycles)/float64(mn.WallCycles), "sssp-speedup")
		b.ReportMetric(mn.L2MPKI(), "sssp-mpki")
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed: simulated
// cycles per host second on the standard SSSP + Minnow configuration.
func BenchmarkSimulatorThroughput(b *testing.B) {
	spec, _ := kernels.SpecByName("SSSP")
	var cycles int64
	for i := 0; i < b.N; i++ {
		o := harness.Options{Config: Config{Threads: 8, Seed: 42, Scheduler: "minnow", Prefetch: true}}
		r, err := harness.Run(spec, o)
		if err != nil {
			b.Fatal(err)
		}
		cycles += r.WallCycles
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "simcycles/op")
}
