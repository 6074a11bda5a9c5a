package harness

import (
	"fmt"
	"testing"

	"minnow/internal/kernels"
)

// small returns options sized for fast tests.
func small(threads int) Options {
	return Options{Config: Config{Threads: threads, Scale: 1, Seed: 7}}
}

func TestSmokeAllBenchmarksOBIM(t *testing.T) {
	for _, spec := range kernels.Suite() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			run, err := Run(spec, small(4))
			if err != nil {
				t.Fatal(err)
			}
			if run.WallCycles <= 0 {
				t.Fatalf("wall cycles = %d", run.WallCycles)
			}
			if run.WorkItems <= 0 {
				t.Fatalf("no work executed")
			}
			t.Logf("%s: %d cycles, %d tasks, L2 MPKI %.1f, delinq %.2f",
				spec.Name, run.WallCycles, run.WorkItems, run.L2MPKI(), run.DelinquentDensity())
		})
	}
}

func TestSmokeMinnow(t *testing.T) {
	for _, spec := range kernels.Suite() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			o := small(4)
			o.Scheduler = "minnow"
			o.Prefetch = true
			run, err := Run(spec, o)
			if err != nil {
				t.Fatal(err)
			}
			if run.WallCycles <= 0 || run.WorkItems <= 0 {
				t.Fatalf("empty run: %+v", run)
			}
			var pf int64
			for _, e := range run.Engines {
				pf += e.Prefetches
			}
			if pf == 0 {
				t.Fatalf("minnow issued no prefetches")
			}
			t.Logf("%s: %d cycles, %d tasks, %d prefetches, MPKI %.2f, eff %.3f",
				spec.Name, run.WallCycles, run.WorkItems, pf, run.L2MPKI(), run.L2.Efficiency())
		})
	}
}

// TestPrefetchLedgerClean runs Minnow with prefetching and the invariant
// checker armed, whose memory audit includes the exact L2 prefetch
// ledger (fills = used + evicted unused + invalidated + still marked):
// Run fails on any violation, so a pass shows the ledger balances on
// every kernel at two thread counts.
func TestPrefetchLedgerClean(t *testing.T) {
	for _, name := range []string{"SSSP", "BFS", "CC", "PR", "TC"} {
		for _, threads := range []int{4, 16} {
			name, threads := name, threads
			t.Run(fmt.Sprintf("%s/%d", name, threads), func(t *testing.T) {
				t.Parallel()
				spec, err := kernels.SpecByName(name)
				if err != nil {
					t.Fatal(err)
				}
				o := small(threads)
				o.Scheduler = "minnow"
				o.Prefetch = true
				o.Invariants = true
				if _, err := Run(spec, o); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
