package harness

import (
	"testing"
)

// sweepJobs is a small grid mixing schedulers and thread counts.
func sweepJobs() []Job {
	var jobs []Job
	for _, bench := range []string{"SSSP", "CC"} {
		for _, sched := range []string{"obim", "minnow"} {
			o := small(4)
			o.Scheduler = sched
			if sched == "minnow" {
				o.Prefetch = true
			}
			jobs = append(jobs, Job{Bench: bench, Opts: o})
		}
	}
	return jobs
}

// TestRunJobsParallelMatchesSerial proves the worker pool changes neither
// results nor their order: every summary from a jobs=4 pool must be
// byte-identical to the jobs=1 serial baseline.
func TestRunJobsParallelMatchesSerial(t *testing.T) {
	jobs := sweepJobs()
	serial := RunJobs(jobs, 1)
	parallel := RunJobs(jobs, 4)
	if len(serial) != len(jobs) || len(parallel) != len(jobs) {
		t.Fatalf("result count: serial %d, parallel %d, want %d", len(serial), len(parallel), len(jobs))
	}
	for i := range jobs {
		if serial[i].Err != nil || parallel[i].Err != nil {
			t.Fatalf("job %d errors: serial %v, parallel %v", i, serial[i].Err, parallel[i].Err)
		}
		sj, pj := serial[i].Run.Summary().JSON(), parallel[i].Run.Summary().JSON()
		if string(sj) != string(pj) {
			t.Errorf("job %d (%s/%s): parallel summary differs from serial\nserial:   %s\nparallel: %s",
				i, jobs[i].Bench, jobs[i].Opts.Scheduler, sj, pj)
		}
	}
}

func TestRunJobsBadBench(t *testing.T) {
	res := RunJobs([]Job{{Bench: "NOPE", Opts: small(2)}}, 2)
	if res[0].Err == nil {
		t.Fatal("unknown benchmark did not error")
	}
}

// TestVerifyDeterminism covers the acceptance grid: three benchmarks ×
// {obim, minnow+prefetch}, each run twice, with zero mismatches allowed.
func TestVerifyDeterminism(t *testing.T) {
	var jobs []Job
	for _, bench := range []string{"SSSP", "CC", "TC"} {
		for _, sched := range []string{"obim", "minnow"} {
			o := small(4)
			o.Scheduler = sched
			if sched == "minnow" {
				o.Prefetch = true
			}
			jobs = append(jobs, Job{Bench: bench, Opts: o})
		}
	}
	reports, err := VerifyDeterminism(jobs, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reports {
		if !rep.OK() {
			t.Errorf("%s/%s nondeterministic: %v", rep.Benchmark, rep.Scheduler, rep.Mismatches)
		}
		if rep.Hash == "" {
			t.Errorf("%s/%s: empty stats hash", rep.Benchmark, rep.Scheduler)
		}
	}
}

// TestRunPlumbsStepAndWritebackCounters guards the new Run fields the
// determinism hash depends on.
func TestRunPlumbsStepAndWritebackCounters(t *testing.T) {
	res := RunJobs([]Job{{Bench: "SSSP", Opts: small(4)}}, 1)
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	r := res[0].Run
	if r.SimSteps <= 0 {
		t.Fatalf("SimSteps = %d, want > 0", r.SimSteps)
	}
	if r.L2.Writebacks <= 0 {
		t.Fatalf("L2 writebacks = %d, want > 0 (dropped on the floor again?)", r.L2.Writebacks)
	}
	if r.L3.Writebacks < 0 {
		t.Fatalf("L3 writebacks = %d", r.L3.Writebacks)
	}
}
