package harness

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"minnow/internal/kernels"
	"minnow/internal/stats"
)

// Job names one simulated configuration for the parallel experiment
// runner: a benchmark from the kernel registry plus its run options.
type Job struct {
	Bench string
	Opts  Options
}

// JobResult pairs a finished job with its run or error, in the order the
// jobs were submitted.
type JobResult struct {
	Job Job
	Run *stats.Run
	Err error
}

// Workers resolves a -jobs flag value: n<=0 means GOMAXPROCS (the number
// of OS threads the runtime will actually schedule in parallel).
func Workers(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		n = 1
	}
	return n
}

// SplitBudget divides the host-thread budget between run-level
// parallelism (-jobs: independent runs in flight) and intra-run
// parallelism (-intra-jobs: bound-phase workers inside each
// simulation). A non-positive jobs is resolved to Workers(0) —
// GOMAXPROCS, the same "all CPUs" RunJobs uses — divided by the effective
// intra width so jobs x intra-jobs roughly fills the machine; the
// resolved value is clamped to >= 1 even when intraJobs oversubscribes
// the machine. A negative intraJobs is normalized to 0 (the serial
// engine); non-negative values pass through unchanged.
func SplitBudget(jobs, intraJobs int) (int, int) {
	if intraJobs < 0 {
		intraJobs = 0
	}
	if jobs <= 0 {
		jobs = max(Workers(0)/max(intraJobs, 1), 1)
	}
	return jobs, intraJobs
}

// RunJobs executes the jobs across a worker pool of the given width
// (0 = GOMAXPROCS) and returns results in submission order, so sweep
// output is identical for every worker count. Each simulation remains a
// single goroutine with its own address space, memory system, and RNG
// streams — parallelism is only across independent configurations, and
// per-run determinism is untouched. workers=1 degenerates to today's
// serial loop.
func RunJobs(jobs []Job, workers int) []JobResult {
	workers = Workers(workers)
	results := make([]JobResult, len(jobs))
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for i, j := range jobs {
			results[i] = runJob(j)
		}
		return results
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = runJob(jobs[i])
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// runJob executes one job, converting a panicking simulation into a
// per-job error (with the stack attached) instead of killing the whole
// sweep: one wedged configuration must not take down its worker and
// silently strand every job behind it.
func runJob(j Job) (res JobResult) {
	res.Job = j
	defer func() {
		if r := recover(); r != nil {
			res.Run = nil
			res.Err = fmt.Errorf("harness: %s/%s panicked: %v\n%s",
				j.Bench, j.Opts.WithDefaults().Scheduler, r, debug.Stack())
		}
	}()
	spec, err := kernels.SpecByName(j.Bench)
	if err != nil {
		res.Err = err
		return res
	}
	res.Run, res.Err = Run(spec, j.Opts)
	return res
}

// DeterminismReport is the outcome of running one configuration twice.
type DeterminismReport struct {
	Benchmark  string   // benchmark name from the job
	Scheduler  string   // resolved scheduler ("minnow" when Config.Minnow)
	Mismatches []string // rendered field diffs; empty when deterministic
	Hash       string   // stats fingerprint of the first run
}

// OK reports whether the two runs were identical.
func (r DeterminismReport) OK() bool { return len(r.Mismatches) == 0 }

// VerifyDeterminism executes every job twice (all repeats fan out over
// the same worker pool) and compares wall cycles, simulation step counts,
// and a hash over the complete per-core/cache/engine statistics between
// the pairs. It turns the sim package's "same configuration and seed,
// same cycle counts" doc-comment guarantee into an executable check. A
// non-nil error means a run failed outright; mismatches are reported per
// job, not as errors.
func VerifyDeterminism(jobs []Job, workers int) ([]DeterminismReport, error) {
	doubled := make([]Job, 0, 2*len(jobs))
	for _, j := range jobs {
		doubled = append(doubled, j, j)
	}
	results := RunJobs(doubled, workers)
	reports := make([]DeterminismReport, len(jobs))
	for i := range jobs {
		a, b := results[2*i], results[2*i+1]
		if a.Err != nil {
			return nil, fmt.Errorf("harness: determinism run 1 of %s/%s: %w", a.Job.Bench, a.Job.Opts.WithDefaults().Scheduler, a.Err)
		}
		if b.Err != nil {
			return nil, fmt.Errorf("harness: determinism run 2 of %s/%s: %w", b.Job.Bench, b.Job.Opts.WithDefaults().Scheduler, b.Err)
		}
		reports[i] = compareRuns(jobs[i], a.Run, b.Run)
	}
	return reports, nil
}

// compareRuns diffs the deterministic summaries of two runs of one job.
func compareRuns(j Job, a, b *stats.Run) DeterminismReport {
	sa, sb := a.Summary(), b.Summary()
	rep := DeterminismReport{Benchmark: j.Bench, Scheduler: j.Opts.WithDefaults().Scheduler, Hash: sa.Hash()}
	diff := func(field string, va, vb any) {
		if va != vb {
			rep.Mismatches = append(rep.Mismatches, fmt.Sprintf("%s: %v != %v", field, va, vb))
		}
	}
	diff("wall_cycles", sa.WallCycles, sb.WallCycles)
	diff("sim_steps", sa.SimSteps, sb.SimSteps)
	diff("work_items", sa.WorkItems, sb.WorkItems)
	diff("stats_hash", rep.Hash, sb.Hash())
	return rep
}
