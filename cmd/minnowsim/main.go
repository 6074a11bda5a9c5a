// Command minnowsim runs a single benchmark on the simulated CMP and
// prints its metrics. With -verify-determinism the configuration is
// instead run twice and the runs compared field by field (wall cycles,
// step counts, per-core statistics hash). Every minnow.Config knob has a
// flag (minnow.RegisterFlags); a zero value takes the knob's default.
//
// Usage:
//
//	minnowsim -bench SSSP -threads 16 -minnow -prefetch
//	minnowsim -bench CC -minnow -prefetch -verify-determinism
//	minnowsim -bench SSSP -minnow -prefetch -faults transient -invariants
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"minnow"
	"minnow/internal/inspect"
)

func main() {
	var cfg minnow.Config
	var (
		bench    = flag.String("bench", "SSSP", "benchmark: "+strings.Join(minnow.Benchmarks(), ", "))
		graphIn  = flag.String("graph", "", "run on a saved binary CSR graph (see graphgen -save)")
		source   = flag.Int("source", 0, "source node for SSSP/BFS/G500 with -graph")
		verify   = flag.Bool("verify-determinism", false, "run the configuration twice and compare results")
		timeline = flag.String("timeline", "", "write a Chrome-trace/Perfetto timeline JSON to this file")
		metrics  = flag.String("metrics", "metrics.csv", "interval-metrics CSV path (with -metrics-every)")
		profile  = flag.String("profile", "", "write a pprof profile of simulated cycles to this file (inspect with `go tool pprof`)")
		folded   = flag.String("folded", "", "write the profiler's folded stacks to this file (feed to flamegraph tooling)")
		httpAddr = flag.String("http", "", "serve the live run inspector on this address (host:port; needs -metrics-every)")
	)
	minnow.RegisterFlags(flag.CommandLine, &cfg)
	flag.Parse()

	cfg.Timeline = *timeline != ""
	cfg.Profile = *profile != "" || *folded != ""
	if cfg.Serial {
		cfg.Threads = 1
	}
	if *httpAddr != "" {
		// The inspector is observe-only: it republishes each crossed
		// metrics-sample boundary over HTTP and serves host-process pprof.
		if cfg.MetricsEvery <= 0 {
			fmt.Fprintln(os.Stderr, "minnowsim: -http needs -metrics-every to have samples to publish")
			os.Exit(1)
		}
		srv, ierr := inspect.Start(*httpAddr)
		if ierr != nil {
			fmt.Fprintln(os.Stderr, "minnowsim:", ierr)
			os.Exit(1)
		}
		defer srv.Close()
		cfg.OnSample = srv.OnSample
		fmt.Printf("live inspector   http://%s/ (metrics + host pprof)\n", srv.Addr())
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "minnowsim:", err)
		os.Exit(1)
	}
	if *verify {
		if *graphIn != "" {
			fmt.Fprintln(os.Stderr, "minnowsim: -verify-determinism does not support -graph")
			os.Exit(1)
		}
		reports, err := minnow.VerifyDeterminism(
			[]minnow.RunRequest{{Benchmark: *bench, Config: cfg}}, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "minnowsim:", err)
			os.Exit(1)
		}
		rep := reports[0]
		if !rep.OK() {
			fmt.Printf("FAIL %s sched=%s: runs diverged\n", rep.Benchmark, rep.Scheduler)
			for _, m := range rep.Mismatches {
				fmt.Printf("     %s\n", m)
			}
			os.Exit(1)
		}
		fmt.Printf("PASS %s sched=%s: 2 runs identical (stats hash %s)\n",
			rep.Benchmark, rep.Scheduler, rep.Hash[:16])
		return
	}
	var res *minnow.Result
	var err error
	if *graphIn != "" {
		f, ferr := os.Open(*graphIn)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "minnowsim:", ferr)
			os.Exit(1)
		}
		g, gerr := minnow.LoadGraph(f)
		f.Close()
		if gerr != nil {
			fmt.Fprintln(os.Stderr, "minnowsim:", gerr)
			os.Exit(1)
		}
		fmt.Printf("input graph      %s (%d nodes, %d edges)\n", g.Name(), g.NumNodes(), g.NumEdges())
		res, err = minnow.RunGraph(*bench, g, int32(*source), cfg)
	} else {
		res, err = minnow.Run(*bench, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "minnowsim:", err)
		os.Exit(1)
	}
	fmt.Printf("benchmark        %s (verified against reference)\n", res.Benchmark)
	fmt.Printf("threads          %d\n", res.Threads)
	fmt.Printf("wall cycles      %d\n", res.WallCycles)
	fmt.Printf("tasks executed   %d\n", res.Tasks)
	fmt.Printf("instructions     %d\n", res.Instructions)
	fmt.Printf("L2 demand MPKI   %.2f\n", res.L2MPKI)
	fmt.Printf("delinquent dens. %.3f\n", res.DelinquentDensity)
	fmt.Printf("cycle breakdown  useful %.2f | worklist %.2f | load-miss %.2f | store-miss %.2f\n",
		res.Breakdown[0], res.Breakdown[1], res.Breakdown[2], res.Breakdown[3])
	fmt.Printf("avg enq/deq cyc  %.1f / %.1f\n", res.AvgEnqueueCycles, res.AvgDequeueCycles)
	if res.EnginePrefetches > 0 {
		fmt.Printf("engine prefetch  %d loads, efficiency %.3f\n", res.EnginePrefetches, res.PrefetchEfficiency)
	}
	if res.TimedOut {
		fmt.Println("NOTE: run exceeded its work budget (timed out)")
	}
	if l := res.Latency; l != nil {
		fmt.Printf("arrival latency  %d injected, %d retired\n", l.Injected, l.Retired)
		for _, c := range l.Classes {
			fmt.Printf("  class %-12s wait p50/p95/p99 %d/%d/%d  sojourn p50/p95/p99 %d/%d/%d\n",
				c.Class, c.WaitP50, c.WaitP95, c.WaitP99, c.SojournP50, c.SojournP95, c.SojournP99)
		}
	}
	if *timeline != "" {
		if werr := os.WriteFile(*timeline, res.TimelineJSON, 0o644); werr != nil {
			fmt.Fprintln(os.Stderr, "minnowsim:", werr)
			os.Exit(1)
		}
		fmt.Printf("timeline         %s (%d bytes; load at ui.perfetto.dev)\n", *timeline, len(res.TimelineJSON))
	}
	if cfg.MetricsEvery > 0 {
		if werr := os.WriteFile(*metrics, []byte(res.IntervalCSV), 0o644); werr != nil {
			fmt.Fprintln(os.Stderr, "minnowsim:", werr)
			os.Exit(1)
		}
		fmt.Printf("interval metrics %s (%d-cycle intervals)\n", *metrics, cfg.MetricsEvery)
	}
	if *profile != "" {
		if werr := os.WriteFile(*profile, res.ProfilePprof, 0o644); werr != nil {
			fmt.Fprintln(os.Stderr, "minnowsim:", werr)
			os.Exit(1)
		}
		fmt.Printf("cycle profile    %s (%d bytes; `go tool pprof -top %s`)\n", *profile, len(res.ProfilePprof), *profile)
	}
	if *folded != "" {
		if werr := os.WriteFile(*folded, []byte(res.Folded), 0o644); werr != nil {
			fmt.Fprintln(os.Stderr, "minnowsim:", werr)
			os.Exit(1)
		}
		fmt.Printf("folded stacks    %s (flamegraph.pl / speedscope)\n", *folded)
	}
	if res.TraceText != "" {
		fmt.Println()
		fmt.Print(res.TraceText)
	}
}
