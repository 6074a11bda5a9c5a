// Package harness assembles full simulated systems — memory hierarchy,
// cores, schedulers, Minnow engines — runs benchmarks, and produces the
// statistics every figure and table of the paper is derived from.
//
// The package splits by concern:
//
//   - config.go declares Config — the public minnow.Config — with its
//     validation and its one defaults table (WithDefaults);
//   - harness.go assembles one machine — every part of a run, built
//     once — from Options (Config plus ablation-only fields, with every
//     default written out by one resolve step) and runs it (Run), or
//     runs a GraphMat / GMat* baseline on one;
//   - observe.go wires the obs package's timeline and sampling registry
//     into a machine when Config.Timeline / Config.MetricsEvery ask for
//     them, and holds its gauges;
//   - faults.go holds the machine's watchdog poll (liveness arms and
//     Config.Cancel), snapshot and invariant checker, and the chaos
//     sweep;
//   - parallel.go fans independent configurations over a worker pool
//     (RunJobs) and implements the determinism checker;
//   - figures.go declares every table and figure once, in one ordered
//     table: the paper's evaluation, the time-resolved, open-loop and
//     profiler views, and the ablations. Each entry is one build
//     function that asks for each run where a row reads it and adds
//     the rows. RenderFigures calls every requested build once,
//     simulates the distinct runs (one per repeat key, which follows
//     the knob tags) over one pool, and then fills the rows;
//     timeseries.go and profiles.go hold the time-resolved and
//     cpistack entries' helpers.
//
// Determinism contract: each simulation is one goroutine owning all of
// its state; parallelism exists only across independent configurations,
// and results are consumed in submission order, so every figure is
// byte-identical for any worker count. Observability is opt-in and
// read-only — enabling it must not change wall cycles, step counts, or
// any RunSummary field (obs_test.go pins this).
package harness
