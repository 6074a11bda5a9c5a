// Package harness assembles full simulated systems — memory hierarchy,
// cores, schedulers, Minnow engines — runs benchmarks, and produces the
// statistics every figure and table of the paper is derived from.
//
// The package splits by concern:
//
//   - config.go declares Config — the public minnow.Config — with its
//     validation and its one defaults table (WithDefaults);
//   - harness.go builds one system from Options (Config plus
//     ablation-only fields) and runs it (Run);
//   - observe.go wires the obs package's timeline and sampling registry
//     into a run when Config.Timeline / Config.MetricsEvery ask for
//     them;
//   - parallel.go fans independent configurations over a worker pool
//     (RunJobs) and implements the determinism checker;
//   - figures.go and timeseries.go regenerate the paper's tables and
//     figures, including the time-resolved occupancy and interval-MPKI
//     views (Fig. 2 / Fig. 13 analogues);
//   - ablations.go holds the §6.4-style sensitivity sweeps.
//
// Determinism contract: each simulation is one goroutine owning all of
// its state; parallelism exists only across independent configurations,
// and results are consumed in submission order, so every figure is
// byte-identical for any worker count. Observability is opt-in and
// read-only — enabling it must not change wall cycles, step counts, or
// any RunSummary field (obs_test.go pins this).
package harness
