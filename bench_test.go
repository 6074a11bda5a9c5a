// Benchmarks: one per table and figure of the paper's evaluation section.
// Each benchmark regenerates its artifact in quick mode (8 simulated
// cores, trimmed sweeps); `go run ./cmd/figures` produces the full
// 64-core versions. The per-op time is the host cost of the simulated
// experiment; sim-side metrics are attached via ReportMetric.
package minnow

import (
	"testing"

	"minnow/internal/harness"
	"minnow/internal/kernels"
)

func quickFig() harness.FigOptions { return harness.QuickFigOptions() }

func benchFigure(b *testing.B, fn func(harness.FigOptions) (interface{ String() string }, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t, err := fn(quickFig())
		if err != nil {
			b.Fatal(err)
		}
		if len(t.String()) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable1Graphs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(harness.Table1(quickFig()).Rows) != 7 {
			b.Fatal("table1 incomplete")
		}
	}
}

func BenchmarkTable2SerialCycles(b *testing.B) {
	benchFigure(b, func(f harness.FigOptions) (interface{ String() string }, error) {
		return harness.Table2(f)
	})
}

func BenchmarkTable3Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = harness.Table3(quickFig()).String()
	}
}

func BenchmarkFig2GaloisVsGraphMat(b *testing.B) {
	benchFigure(b, func(f harness.FigOptions) (interface{ String() string }, error) {
		return harness.Fig2(f)
	})
}

func BenchmarkFig3Schedulers(b *testing.B) {
	benchFigure(b, func(f harness.FigOptions) (interface{ String() string }, error) {
		return harness.Fig3(f)
	})
}

func BenchmarkFig4ROBSweep(b *testing.B) {
	benchFigure(b, func(f harness.FigOptions) (interface{ String() string }, error) {
		return harness.Fig4(f)
	})
}

func BenchmarkFig5Breakdown(b *testing.B) {
	benchFigure(b, func(f harness.FigOptions) (interface{ String() string }, error) {
		return harness.Fig5(f)
	})
}

func BenchmarkFig6DelinquentDensity(b *testing.B) {
	benchFigure(b, func(f harness.FigOptions) (interface{ String() string }, error) {
		return harness.Fig6(f)
	})
}

func BenchmarkFig11WorklistOpCost(b *testing.B) {
	benchFigure(b, func(f harness.FigOptions) (interface{ String() string }, error) {
		return harness.Fig11(f)
	})
}

func BenchmarkFig15Scalability(b *testing.B) {
	benchFigure(b, func(f harness.FigOptions) (interface{ String() string }, error) {
		return harness.Fig15(f)
	})
}

func BenchmarkFig16OverallSpeedup(b *testing.B) {
	// The headline experiment; also surfaces the measured speedups as
	// custom metrics.
	spec, _ := kernels.SpecByName("SSSP")
	for i := 0; i < b.N; i++ {
		f := quickFig()
		base := harness.Options{Config: Config{Threads: f.Threads, Scale: f.Scale, Seed: f.Seed, SplitThreshold: 2048}}
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

func BenchmarkFig17IMPComparison(b *testing.B) {
	benchFigure(b, func(f harness.FigOptions) (interface{ String() string }, error) {
		return harness.Fig17(f)
	})
}

func BenchmarkFig18MPKIvsCredits(b *testing.B) {
	benchFigure(b, func(f harness.FigOptions) (interface{ String() string }, error) {
		return harness.Fig18(f)
	})
}

func BenchmarkFig19SpeedupVsCredits(b *testing.B) {
	benchFigure(b, func(f harness.FigOptions) (interface{ String() string }, error) {
		return harness.Fig19(f)
	})
}

func BenchmarkFig20PrefetchEfficiency(b *testing.B) {
	benchFigure(b, func(f harness.FigOptions) (interface{ String() string }, error) {
		return harness.Fig20(f)
	})
}

func BenchmarkFig21MemoryChannels(b *testing.B) {
	benchFigure(b, func(f harness.FigOptions) (interface{ String() string }, error) {
		return harness.Fig21(f)
	})
}

func BenchmarkAreaModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = harness.AreaTable().String()
	}
}

// BenchmarkAblations regenerates the design-choice ablation tables
// (task splitting, socket sharding, structure sizes, engine sharing).
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := harness.Ablations(quickFig())
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty ablations")
		}
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
