package harness

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"minnow/internal/kernels"
)

// The differential equivalence suite: the parallel bound/weave engine
// (Options.IntraJobs >= 1) must be byte-identical to the serial engine
// on every benchmark x scheduler x seed, for every worker count — same
// RunSummary JSON and hash, same folded profile, same timeline bytes,
// same step count. Runs are capped by a work budget so the suite stays
// fast; the budget stop is a deterministic galois-level event that both
// engines hit identically.

// equivWorkers are the pinned worker counts from the acceptance
// criteria; 1 exercises the epoch machinery without host concurrency.
var equivWorkers = []int{1, 2, 8}

type engineArtifacts struct {
	summary  []byte
	hash     string
	folded   string
	timeline []byte
	simSteps int64
}

func artifactsFor(t *testing.T, spec kernels.Spec, o Options) engineArtifacts {
	t.Helper()
	run, err := Run(spec, o)
	if err != nil {
		t.Fatalf("%s/%s (intra-jobs %d): %v", spec.Name, o.Scheduler, o.IntraJobs, err)
	}
	a := engineArtifacts{
		summary:  run.Summary().JSON(),
		hash:     run.Summary().Hash(),
		simSteps: run.SimSteps,
	}
	if run.Profile != nil {
		a.folded = run.Profile.Folded()
	}
	if run.Timeline != nil {
		a.timeline = run.Timeline.Perfetto()
	}
	return a
}

func TestEquivalenceSerialParallel(t *testing.T) {
	specs := append(kernels.Suite(), kernels.Extensions()...)
	scheds := []string{"obim", "fifo", "lifo", "strictpq", "minnow"}
	seeds := []uint64{42, 7}
	for _, spec := range specs {
		for _, sched := range scheds {
			for _, seed := range seeds {
				spec, sched, seed := spec, sched, seed
				t.Run(fmt.Sprintf("%s/%s/seed%d", spec.Name, sched, seed), func(t *testing.T) {
					t.Parallel()
					o := Options{
						Threads:    4,
						Seed:       seed,
						Scheduler:  sched,
						WorkBudget: 1000,
						SkipVerify: true,
						Timeline:   true,
						Profile:    true,
						Prefetch:   sched == "minnow",
					}
					base := artifactsFor(t, spec, o)
					for _, w := range equivWorkers {
						po := o
						po.IntraJobs = w
						po.EpochWindow = 2048
						got := artifactsFor(t, spec, po)
						if got.hash != base.hash || !bytes.Equal(got.summary, base.summary) {
							t.Fatalf("workers=%d: RunSummary diverges from serial\nserial: %s\nparallel: %s",
								w, base.summary, got.summary)
						}
						if got.simSteps != base.simSteps {
							t.Errorf("workers=%d: sim steps diverge: serial %d, parallel %d", w, base.simSteps, got.simSteps)
						}
						if got.folded != base.folded {
							t.Errorf("workers=%d: folded profile diverges from serial", w)
						}
						if !bytes.Equal(got.timeline, base.timeline) {
							t.Errorf("workers=%d: timeline bytes diverge from serial", w)
						}
					}
				})
			}
		}
	}
}

// TestSharedHorizonEquivalence re-runs the differential suite with
// conservative-lookahead horizons on: every benchmark x scheduler,
// serial vs workers {1,2,8}, summary/steps/folded/timeline bytes all
// identical. The serial baseline also has SharedHorizons set — the flag
// changes the step schedule (idle waits split in two), so equivalence is
// asserted within the flag, exactly as operators compare runs.
func TestSharedHorizonEquivalence(t *testing.T) {
	specs := append(kernels.Suite(), kernels.Extensions()...)
	scheds := []string{"obim", "minnow"}
	for _, spec := range specs {
		for _, sched := range scheds {
			spec, sched := spec, sched
			t.Run(fmt.Sprintf("%s/%s", spec.Name, sched), func(t *testing.T) {
				t.Parallel()
				o := Options{
					Threads:        4,
					Scheduler:      sched,
					WorkBudget:     1000,
					SkipVerify:     true,
					Timeline:       true,
					Profile:        true,
					Prefetch:       sched == "minnow",
					SharedHorizons: true,
				}
				base := artifactsFor(t, spec, o)
				for _, w := range equivWorkers {
					po := o
					po.IntraJobs = w
					po.EpochWindow = 2048
					got := artifactsFor(t, spec, po)
					if got.hash != base.hash || !bytes.Equal(got.summary, base.summary) {
						t.Fatalf("workers=%d: RunSummary diverges from serial\nserial: %s\nparallel: %s",
							w, base.summary, got.summary)
					}
					if got.simSteps != base.simSteps {
						t.Errorf("workers=%d: sim steps diverge: serial %d, parallel %d", w, base.simSteps, got.simSteps)
					}
					if got.folded != base.folded {
						t.Errorf("workers=%d: folded profile diverges from serial", w)
					}
					if !bytes.Equal(got.timeline, base.timeline) {
						t.Errorf("workers=%d: timeline bytes diverge from serial", w)
					}
				}
			})
		}
	}
}

// TestSharedHorizonCoverage pins the tentpole's payoff AND the sparse-
// schedule probe fix in one configuration: a shared-machine 64-core
// Minnow run (no isolated copies) with interval sampling. The hardware
// worklist is the one scheduler whose pops can fail while tasks are
// still in flight between engines — a software worklist is empty only
// when nothing is outstanding, so workers retire instead of idling —
// which makes it the configuration where idle backoffs (the private
// steps the horizons expose) actually occur. The bound phase must
// engage, and the interval-CSV bytes — whose rows fire at probe
// boundaries that idle gaps can jump several at a time — must match the
// serial engine exactly, along with the summary, at every worker count.
func TestSharedHorizonCoverage(t *testing.T) {
	spec, err := kernels.SpecByName("SSSP")
	if err != nil {
		t.Fatal(err)
	}
	o := Options{
		Threads:        64,
		Scheduler:      "minnow",
		Prefetch:       true,
		WorkBudget:     600,
		SkipVerify:     true,
		MetricsEvery:   512,
		SharedHorizons: true,
	}
	base, err := Run(spec, o)
	if err != nil {
		t.Fatal(err)
	}
	if base.BoundSteps != 0 {
		t.Fatalf("serial run reported %d bound steps", base.BoundSteps)
	}
	baseSum := base.Summary().JSON()
	baseCSV := base.Intervals.CSV()
	if baseCSV == "" {
		t.Fatal("interval sampling produced no rows; the regression vector is empty")
	}
	for _, w := range equivWorkers {
		po := o
		po.IntraJobs = w
		got, err := Run(spec, po)
		if err != nil {
			t.Fatalf("intra-jobs %d: %v", w, err)
		}
		if got.BoundSteps == 0 {
			t.Errorf("intra-jobs %d: bound phase never engaged on the shared machine", w)
		}
		if !bytes.Equal(got.Summary().JSON(), baseSum) {
			t.Fatalf("intra-jobs %d: summary diverges\nserial: %s\nparallel: %s",
				w, baseSum, got.Summary().JSON())
		}
		if csv := got.Intervals.CSV(); csv != baseCSV {
			t.Fatalf("intra-jobs %d: interval CSV diverges from serial\nserial:\n%s\nparallel:\n%s", w, baseCSV, csv)
		}
	}
	// Without the flag the shared machine has no bound-eligible steps at
	// all — the baseline this PR exists to beat.
	off := o
	off.SharedHorizons = false
	off.IntraJobs = 8
	offRun, err := Run(spec, off)
	if err != nil {
		t.Fatal(err)
	}
	if offRun.BoundSteps != 0 {
		t.Errorf("flag off: expected a fully woven shared machine, got %d bound steps", offRun.BoundSteps)
	}
}

func TestSplitBudget(t *testing.T) {
	if jobs, intra := SplitBudget(3, 5); jobs != 3 || intra != 5 {
		t.Errorf("explicit values must pass through: got (%d,%d)", jobs, intra)
	}
	if jobs, intra := SplitBudget(0, 0); jobs < 1 || intra != 0 {
		t.Errorf("auto jobs with serial engine: got (%d,%d), want (>=1,0)", jobs, intra)
	}
	jobsWide, _ := SplitBudget(0, 1)
	jobsSplit, _ := SplitBudget(0, 4)
	if jobsSplit > jobsWide {
		t.Errorf("intra width must shrink the auto jobs budget: %d > %d", jobsSplit, jobsWide)
	}
	// Oversubscription: when the per-run worker width meets or exceeds
	// the whole host budget, the job count must clamp to 1, never 0 —
	// a 0-job schedule would silently run nothing.
	ncpu := runtime.NumCPU()
	for _, tc := range []struct {
		name      string
		intraJobs int
	}{
		{"width == NumCPU", ncpu},
		{"width > NumCPU", ncpu * 4},
		{"width absurd", ncpu * 1000},
	} {
		if jobs, intra := SplitBudget(0, tc.intraJobs); jobs < 1 || intra != tc.intraJobs {
			t.Errorf("%s: got (%d,%d), want (>=1,%d)", tc.name, jobs, intra, tc.intraJobs)
		}
	}
	// Negative widths normalize to the serial engine rather than
	// corrupting the division.
	if jobs, intra := SplitBudget(0, -3); jobs < 1 || intra != 0 {
		t.Errorf("negative intra width: got (%d,%d), want (>=1,0)", jobs, intra)
	}
}

// TestSplitBudgetFollowsGOMAXPROCS pins that SplitBudget's automatic job
// count means the same "all CPUs" as Workers and RunJobs — GOMAXPROCS,
// not NumCPU — so a host capped at fewer procs never fans out more
// simulations than it will schedule.
func TestSplitBudgetFollowsGOMAXPROCS(t *testing.T) {
	procs := runtime.NumCPU() + 3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	if jobs, _ := SplitBudget(0, 0); jobs != procs {
		t.Errorf("auto jobs %d, want GOMAXPROCS %d", jobs, procs)
	}
	if jobs, _ := SplitBudget(0, 2); jobs != procs/2 {
		t.Errorf("auto jobs at intra width 2: %d, want %d", jobs, procs/2)
	}
}
