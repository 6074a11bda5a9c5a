package minnow

import "minnow/internal/harness"

// RunChaos executes the fault-injection ("chaos") sweep: SSSP, BFS, and
// CC under the Minnow scheduler, fault-free and under each canonical
// fault preset (transient, offline, chaos), with the runtime invariant
// checker armed and every cell run twice to prove seed-reproducibility.
// cfg supplies the base system (Threads, Scale, Seed, ...); its
// scheduler-related fields are overridden per cell. jobs bounds the
// worker pool (0 = all CPUs).
//
// The returned report is always populated, one row per cell; the error
// aggregates the failed cells (nil when the whole sweep passed).
func RunChaos(cfg Config, jobs int) (string, error) {
	if err := cfg.Validate(); err != nil {
		return "", err
	}
	rep := harness.Chaos(harness.Options{Config: cfg}, jobs)
	return rep.String(), rep.Err()
}
