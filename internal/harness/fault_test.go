package harness

import (
	"strings"
	"testing"

	"minnow/internal/fault"
	"minnow/internal/kernels"
)

// faultOpts returns obsOpts with a fault plan attached.
func faultOpts(t *testing.T, plan string) Options {
	t.Helper()
	if _, err := fault.ParsePlan(plan); plan != "" && err != nil {
		t.Fatal(err)
	}
	o := obsOpts()
	o.Faults = plan
	return o
}

// TestFaultLayerInert is the subsystem's load-bearing contract: with no
// fault plan, arming the invariant checker and the watchdog must not
// change ANY deterministic output — same summary hash, same wall
// cycles, same event-loop step count as a plain run.
func TestFaultLayerInert(t *testing.T) {
	spec, err := kernels.SpecByName("SSSP")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(spec, obsOpts())
	if err != nil {
		t.Fatal(err)
	}
	o := obsOpts()
	o.Invariants = true
	armed, err := Run(spec, o)
	if err != nil {
		t.Fatal(err)
	}
	if armed.WallCycles != plain.WallCycles {
		t.Fatalf("wall cycles %d with invariants, %d without", armed.WallCycles, plain.WallCycles)
	}
	if armed.SimSteps != plain.SimSteps {
		t.Fatalf("sim steps %d with invariants, %d without", armed.SimSteps, plain.SimSteps)
	}
	if a, b := armed.Summary().Hash(), plain.Summary().Hash(); a != b {
		t.Fatalf("summary hash changed with invariants armed:\n  armed %s\n  plain %s", a, b)
	}
	if plain.Faults != nil || armed.Faults != nil {
		t.Fatalf("fault stats populated on fault-free runs")
	}
}

// TestTransientFaultsReproducible runs the transient preset twice: the
// answer must still verify (Run errors on a wrong answer), fault
// counters must show the plan actually fired, and both runs must agree
// bit-for-bit.
func TestTransientFaultsReproducible(t *testing.T) {
	spec, err := kernels.SpecByName("SSSP")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(spec, faultOpts(t, "transient"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec, faultOpts(t, "transient"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Faults == nil {
		t.Fatal("transient run recorded no fault stats")
	}
	fired := a.Faults.EngineStalls + a.Faults.NoCDelays + a.Faults.DRAMRetries +
		a.Faults.SpillRetries + a.Faults.CreditsLost
	if fired == 0 {
		t.Fatalf("transient plan injected nothing: %+v", a.Faults)
	}
	if a.Faults.EnginesOffline != 0 {
		t.Fatalf("transient plan took %d engines offline", a.Faults.EnginesOffline)
	}
	if x, y := a.Summary().Hash(), b.Summary().Hash(); x != y {
		t.Fatalf("same seed, same plan, different runs:\n  %s\n  %s", x, y)
	}
	if a.WallCycles != b.WallCycles || a.SimSteps != b.SimSteps {
		t.Fatalf("fault replay diverged: wall %d/%d steps %d/%d",
			a.WallCycles, b.WallCycles, a.SimSteps, b.SimSteps)
	}
	if *a.Faults != *b.Faults {
		t.Fatalf("fault stats diverged:\n  %+v\n  %+v", a.Faults, b.Faults)
	}
}

// TestEngineOfflineFailover kills every engine mid-run and checks the
// cores converge on the software fallback with a verified answer.
func TestEngineOfflineFailover(t *testing.T) {
	spec, err := kernels.SpecByName("BFS")
	if err != nil {
		t.Fatal(err)
	}
	o := faultOpts(t, "offline")
	o.Invariants = true
	run, err := Run(spec, o)
	if err != nil {
		t.Fatal(err)
	}
	if run.Faults == nil || run.Faults.EnginesOffline == 0 {
		t.Fatalf("offline plan killed no engines: %+v", run.Faults)
	}
	if run.WorkItems <= 0 {
		t.Fatal("no work completed after failover")
	}
}

// TestWatchdogMaxCycles arms a far-too-small cycle budget and checks the
// run halts with a diagnostic snapshot instead of spinning.
func TestWatchdogMaxCycles(t *testing.T) {
	spec, err := kernels.SpecByName("SSSP")
	if err != nil {
		t.Fatal(err)
	}
	o := obsOpts()
	o.Invariants = true
	o.MaxCycles = 1000
	_, err = Run(spec, o)
	if err == nil {
		t.Fatal("1000-cycle budget did not trip the watchdog")
	}
	msg := err.Error()
	if !strings.Contains(msg, "halted by watchdog") {
		t.Fatalf("watchdog error missing cause: %v", err)
	}
	// The snapshot must carry actionable state: the reason line and the
	// scheduler queue dump.
	for _, want := range []string{"cycle budget exceeded", "time=", "actors"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("snapshot missing %q:\n%s", want, msg)
		}
	}
}

// TestRunJobsRecoversPanics injects a config that panics deep inside
// setup (negative DRAM channel count) between two healthy jobs and
// checks the pool survives: the poisoned job reports a stack-bearing
// error, its neighbors complete normally.
func TestRunJobsRecoversPanics(t *testing.T) {
	spec := "SSSP"
	good := small(2)
	bad := small(2)
	bad.MemChannels = -5 // withDefaults only replaces 0; dram.New panics
	results := RunJobs([]Job{
		{Bench: spec, Opts: good},
		{Bench: spec, Opts: bad},
		{Bench: spec, Opts: good},
	}, 2)
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("healthy jobs poisoned: %v / %v", results[0].Err, results[2].Err)
	}
	if results[0].Run == nil || results[2].Run == nil {
		t.Fatal("healthy jobs returned no run")
	}
	err := results[1].Err
	if err == nil {
		t.Fatal("panicking job reported success")
	}
	if !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panic not flagged: %v", err)
	}
	if !strings.Contains(err.Error(), "goroutine") {
		t.Fatalf("panic error carries no stack trace: %v", err)
	}
}

// TestChaosCellPostChecks runs one transient chaos cell end to end via
// the exported sweep entry point at minimum size.
func TestChaosSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep is slow")
	}
	rep := Chaos(small(2), 0)
	if len(rep.Failed()) > 0 {
		t.Fatalf("chaos sweep failed:\n%s\n%v", rep.String(), rep.Err())
	}
	if len(rep.Cells) != len(chaosBenches)*len(chaosPresets) {
		t.Fatalf("chaos sweep ran %d cells, want %d", len(rep.Cells), len(chaosBenches)*len(chaosPresets))
	}
}
