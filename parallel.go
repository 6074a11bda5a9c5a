package minnow

import "minnow/internal/harness"

// RunRequest names one benchmark × configuration for the parallel runner.
type RunRequest struct {
	Benchmark string // benchmark name (see Benchmarks)
	Config    Config // configuration to simulate
}

// RunResult pairs a request with its outcome, in request order.
type RunResult struct {
	Request RunRequest // the request this result answers
	Result  *Result    // nil when Err is set
	Err     error      // validation or simulation failure
}

// toJob converts a request to a harness job, validating it exactly as
// Run does.
func (r RunRequest) toJob() (harness.Job, error) {
	if err := r.Config.Validate(); err != nil {
		return harness.Job{}, err
	}
	return harness.Job{Bench: r.Benchmark, Opts: harness.Options{Config: r.Config}}, nil
}

// RunMany executes the requests across a bounded worker pool (jobs <= 0
// uses GOMAXPROCS; jobs = 1 is today's serial behavior) and returns
// results in request order. Every simulation remains single-goroutine
// with private state, so each run's determinism guarantee is unchanged —
// only independent configurations overlap.
func RunMany(reqs []RunRequest, jobs int) []RunResult {
	out := make([]RunResult, len(reqs))
	hjobs := make([]harness.Job, 0, len(reqs))
	slot := make([]int, 0, len(reqs)) // hjobs index -> reqs index
	for i, req := range reqs {
		out[i].Request = req
		j, err := req.toJob()
		if err != nil {
			out[i].Err = err
			continue
		}
		hjobs = append(hjobs, j)
		slot = append(slot, i)
	}
	for k, res := range harness.RunJobs(hjobs, jobs) {
		i := slot[k]
		if res.Err != nil {
			out[i].Err = res.Err
			continue
		}
		out[i].Result = resultFrom(reqs[i].Benchmark, res.Run)
	}
	return out
}

// DeterminismReport is the outcome of running one configuration twice:
// the benchmark, its resolved scheduler, the rendered field diffs (empty
// when deterministic), and the first run's stats fingerprint.
type DeterminismReport = harness.DeterminismReport

// VerifyDeterminism runs every request twice and compares wall cycles,
// simulation step counts, and a hash of the complete per-core statistics
// between the pairs — the executable form of the simulator's "same
// configuration and seed, same cycle counts" guarantee. The repeats fan
// out over the same worker pool as RunMany.
func VerifyDeterminism(reqs []RunRequest, jobs int) ([]DeterminismReport, error) {
	hjobs := make([]harness.Job, len(reqs))
	for i, req := range reqs {
		j, err := req.toJob()
		if err != nil {
			return nil, err
		}
		hjobs[i] = j
	}
	return harness.VerifyDeterminism(hjobs, jobs)
}
