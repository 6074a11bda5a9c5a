// Command sweep runs a Cartesian grid of configurations over one or more
// benchmarks and emits one CSV row per run — the general-purpose
// experiment driver behind ad-hoc studies that the fixed figure suite
// does not cover.
//
// Independent configurations fan out over a bounded worker pool
// (-jobs N, default = all CPUs); rows are always emitted in grid order,
// so the CSV is byte-identical for any -jobs value. With
// -verify-determinism the grid is instead run twice and the paired runs
// are compared (wall cycles, step counts, per-core statistics hash);
// any mismatch exits non-zero.
//
// With -chaos the grid flags are ignored and the fault-injection sweep
// runs instead: SSSP/BFS/CC under the Minnow scheduler, fault-free and
// under each canonical fault preset, invariants armed, every cell run
// twice to prove seed-reproducibility. -faults / -invariants apply a
// fault plan or the invariant checker to an ordinary grid sweep.
//
// Every minnow.Config knob has a flag (minnow.RegisterFlags) applied to
// each run, except the three grid axes -threads, -sched and -credits,
// which take comma-separated lists. sweep defaults -split to 512 and
// -prefetch to true; -prefetch applies to the minnow runs only.
//
// Usage:
//
//	sweep -bench SSSP -threads 1,2,4,8 -sched obim,minnow -credits 32
//	sweep -bench CC -threads 8 -sched minnow -prefetch -credits 4,16,64,256 -out cc.csv
//	sweep -bench SSSP,CC,TC -sched obim,minnow -verify-determinism
//	sweep -chaos -threads 4 -chaos-out chaos-report.txt
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"minnow"
)

// intList parses "1,2,4" into ints.
func intList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("sweep: bad integer %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	base := minnow.Config{SplitThreshold: 512, Prefetch: true}
	var (
		bench    = flag.String("bench", "SSSP", "comma-separated benchmarks: "+strings.Join(minnow.Benchmarks(), ", "))
		threads  = flag.String("threads", "8", "comma-separated thread counts")
		scheds   = flag.String("sched", "obim,minnow", "comma-separated schedulers (obim, fifo, lifo, strictpq, minnow)")
		credits  = flag.String("credits", "32", "comma-separated credit counts (minnow+prefetch runs)")
		out      = flag.String("out", "", "CSV output file (default stdout)")
		jobs     = flag.Int("jobs", 0, "max concurrent simulations (0 = all CPUs, 1 = serial)")
		verify   = flag.Bool("verify-determinism", false, "run each configuration twice and compare results instead of emitting CSV")
		chaos    = flag.Bool("chaos", false, "run the fault-injection sweep instead of the grid (uses the first -threads value)")
		chaosOut = flag.String("chaos-out", "", "also write the chaos report to this file (written on failure too)")
		profDir  = flag.String("profile-dir", "", "write per-run cycle profiles (pprof + folded stacks) into this directory")
	)
	minnow.RegisterFlags(flag.CommandLine, &base)
	flag.Parse()

	ths, err := intList(*threads)
	if err != nil {
		fail(err)
	}
	// Split the host-thread budget: -jobs whole runs in flight, each with
	// -intra-jobs bound-phase workers. An explicit -jobs wins; the auto
	// value shrinks as -intra-jobs grows so the product fills the machine.
	*jobs, _ = minnow.SplitBudget(*jobs, base.IntraJobs)

	if *chaos {
		report, cerr := minnow.RunChaos(minnow.Config{Threads: ths[0], Scale: base.Scale, Seed: base.Seed}, *jobs)
		if report != "" {
			fmt.Println(report)
			if *chaosOut != "" {
				if werr := os.WriteFile(*chaosOut, []byte(report+"\n"), 0o644); werr != nil {
					fail(werr)
				}
			}
		}
		if cerr != nil {
			fail(cerr)
		}
		fmt.Println("chaos sweep passed: all cells correct, deterministic, and invariant-clean")
		return
	}
	crs, err := intList(*credits)
	if err != nil {
		fail(err)
	}
	schedList := strings.Split(*scheds, ",")
	benchList := strings.Split(*bench, ",")
	base.Profile = *profDir != ""

	// Build the request grid in deterministic nested order; results are
	// consumed in the same order below, so output never depends on -jobs.
	var reqs []minnow.RunRequest
	for _, b := range benchList {
		b = strings.TrimSpace(b)
		for _, th := range ths {
			for _, sched := range schedList {
				sched = strings.TrimSpace(sched)
				creditSet := []int{0}
				if sched == "minnow" && base.Prefetch {
					creditSet = crs
				}
				for _, cr := range creditSet {
					cfg := base
					cfg.Threads, cfg.Scheduler = th, sched
					if sched == "minnow" {
						cfg.Minnow, cfg.Credits = true, cr
					} else {
						cfg.Prefetch = false
					}
					reqs = append(reqs, minnow.RunRequest{Benchmark: b, Config: cfg})
				}
			}
		}
	}

	if *verify {
		verifyDeterminism(reqs, *jobs)
		return
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		w = f
	}
	fmt.Fprintln(w, "bench,threads,scheduler,prefetch,credits,wall_cycles,tasks,instructions,l2_mpki,prefetch_efficiency,useful,worklist,load_miss,store_miss,timed_out")

	if *profDir != "" {
		if merr := os.MkdirAll(*profDir, 0o755); merr != nil {
			fail(merr)
		}
	}
	for _, rr := range minnow.RunMany(reqs, *jobs) {
		if rr.Err != nil {
			fail(rr.Err)
		}
		cfg, res := rr.Request.Config, rr.Result
		fmt.Fprintf(w, "%s,%d,%s,%v,%d,%d,%d,%d,%.3f,%.4f,%.4f,%.4f,%.4f,%.4f,%v\n",
			rr.Request.Benchmark, cfg.Threads, cfg.Scheduler, cfg.Prefetch, cfg.Credits,
			res.WallCycles, res.Tasks, res.Instructions,
			res.L2MPKI, res.PrefetchEfficiency,
			res.Breakdown[0], res.Breakdown[1], res.Breakdown[2], res.Breakdown[3],
			res.TimedOut)
		if *profDir != "" {
			stem := fmt.Sprintf("%s/%s_t%d_%s_pf%v_c%d",
				*profDir, rr.Request.Benchmark, cfg.Threads, cfg.Scheduler, cfg.Prefetch, cfg.Credits)
			if werr := os.WriteFile(stem+".pb.gz", res.ProfilePprof, 0o644); werr != nil {
				fail(werr)
			}
			if werr := os.WriteFile(stem+".folded", []byte(res.Folded), 0o644); werr != nil {
				fail(werr)
			}
		}
	}
}

// verifyDeterminism runs the grid twice, prints one line per
// configuration, and exits non-zero if any pair of runs diverged.
func verifyDeterminism(reqs []minnow.RunRequest, jobs int) {
	reports, err := minnow.VerifyDeterminism(reqs, jobs)
	if err != nil {
		fail(err)
	}
	bad := 0
	for i, rep := range reports {
		cfg := reqs[i].Config
		label := fmt.Sprintf("%s threads=%d sched=%s prefetch=%v credits=%d",
			rep.Benchmark, cfg.Threads, rep.Scheduler, cfg.Prefetch, cfg.Credits)
		if rep.OK() {
			fmt.Printf("PASS %s hash=%s\n", label, rep.Hash[:16])
			continue
		}
		bad++
		fmt.Printf("FAIL %s\n", label)
		for _, m := range rep.Mismatches {
			fmt.Printf("     %s\n", m)
		}
	}
	if bad > 0 {
		fail(fmt.Errorf("sweep: %d of %d configurations nondeterministic", bad, len(reports)))
	}
	fmt.Printf("determinism verified: %d configurations, 2 runs each, zero mismatches\n", len(reports))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
