package harness

import (
	"bytes"
	"strings"
	"testing"

	"minnow/internal/arrival"
	"minnow/internal/galois"
	"minnow/internal/kernels"
)

// arrivalOpts returns obsOpts with an arrival plan attached.
func arrivalOpts(t *testing.T, plan string) Options {
	t.Helper()
	o := obsOpts()
	o.Arrivals = plan
	scheduled(t, o) // fail early on a bad plan
	return o
}

// scheduled returns how many arrivals o's plan delivers.
func scheduled(t *testing.T, o Options) int64 {
	t.Helper()
	p, err := arrival.ParsePlan(o.Arrivals)
	if err != nil {
		t.Fatal(err)
	}
	return p.Total()
}

// TestArrivalLayerInert is the subsystem's load-bearing contract: with
// no arrival plan the layer must not exist — no latency stats, no
// "latency" key in the canonical summary JSON, and (with the invariant
// checker armed, which shares the watchdog path the arrival layer
// taught about pending injections) the same wall cycles, step count,
// and summary hash as a plain run.
func TestArrivalLayerInert(t *testing.T) {
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
	if plain.Latency != nil || armed.Latency != nil {
		t.Fatalf("latency stats populated on closed-loop runs")
	}
	if js := plain.Summary().JSON(); strings.Contains(string(js), `"latency"`) {
		t.Fatalf("closed-loop summary JSON leaks a latency key:\n%s", js)
	}
	if armed.WallCycles != plain.WallCycles || armed.SimSteps != plain.SimSteps {
		t.Fatalf("invariants armed changed the run: wall %d/%d steps %d/%d",
			armed.WallCycles, plain.WallCycles, armed.SimSteps, plain.SimSteps)
	}
	if a, b := armed.Summary().Hash(), plain.Summary().Hash(); a != b {
		t.Fatalf("summary hash changed with invariants armed:\n  armed %s\n  plain %s", a, b)
	}
}

// TestArrivalEquivalentAcrossWorkers pins the parallel-equivalence
// contract with arrivals on: the canonical RunSummary JSON (latency
// percentiles included) must be byte-identical between the serial
// engine and bound/weave execution at 1, 2, and 8 workers. Run under
// -race in CI, this is also the proof the injection actor's
// deposit/drain split never races worker state.
func TestArrivalEquivalentAcrossWorkers(t *testing.T) {
	spec, err := kernels.SpecByName("SSSP")
	if err != nil {
		t.Fatal(err)
	}
	base := arrivalOpts(t, "steady")
	serial, err := Run(spec, base)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Latency == nil {
		t.Fatal("arrival run recorded no latency stats")
	}
	if want := scheduled(t, base); serial.Latency.Injected != want {
		t.Fatalf("injected %d of %d scheduled arrivals", serial.Latency.Injected, want)
	}
	want := serial.Summary().JSON()
	for _, workers := range []int{1, 2, 8} {
		o := base
		o.IntraJobs = workers
		run, err := Run(spec, o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := run.Summary().JSON(); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: summary JSON diverged from serial\n  serial %s\n  para   %s",
				workers, serial.Summary().Hash(), run.Summary().Hash())
		}
	}
}

// TestArrivalDoubleRunIdentical runs the same arrival configuration
// twice and demands byte-identical summaries — the replay-determinism
// half of the equivalence contract (the schedule is materialized from
// the plan seed, so nothing may vary between runs).
func TestArrivalDoubleRunIdentical(t *testing.T) {
	spec, err := kernels.SpecByName("BFS")
	if err != nil {
		t.Fatal(err)
	}
	o := arrivalOpts(t, "waves")
	a, err := Run(spec, o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec, o)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Summary().JSON(), b.Summary().JSON()) {
		t.Fatalf("same plan, different runs:\n  %s\n  %s", a.Summary().Hash(), b.Summary().Hash())
	}
	if a.WallCycles != b.WallCycles || a.SimSteps != b.SimSteps {
		t.Fatalf("arrival replay diverged: wall %d/%d steps %d/%d",
			a.WallCycles, b.WallCycles, a.SimSteps, b.SimSteps)
	}
}

// TestArrivalConservationInvariants runs arrival plans with the
// invariant checker armed across benchmarks and presets: Run fails on
// any conservation violation, so a pass proves every scheduled arrival
// was delivered, credited at birth, and retired, and the answer still
// verified against the reference.
func TestArrivalConservationInvariants(t *testing.T) {
	for _, bench := range []string{"SSSP", "BFS", "CC"} {
		for _, preset := range []string{"steady", "waves"} {
			bench, preset := bench, preset
			t.Run(bench+"/"+preset, func(t *testing.T) {
				t.Parallel()
				spec, err := kernels.SpecByName(bench)
				if err != nil {
					t.Fatal(err)
				}
				o := arrivalOpts(t, preset)
				o.Invariants = true
				run, err := Run(spec, o)
				if err != nil {
					t.Fatal(err)
				}
				if run.Latency == nil {
					t.Fatal("no latency stats")
				}
				if run.Latency.Injected != run.Latency.Retired {
					t.Fatalf("injected %d != retired %d", run.Latency.Injected, run.Latency.Retired)
				}
				if want := scheduled(t, o); run.Latency.Injected != want {
					t.Fatalf("injected %d of %d scheduled", run.Latency.Injected, want)
				}
				for _, c := range run.Latency.Classes {
					if c.WaitP50 > c.WaitP95 || c.WaitP95 > c.WaitP99 {
						t.Fatalf("class %s wait percentiles not monotone: %d/%d/%d",
							c.Class, c.WaitP50, c.WaitP95, c.WaitP99)
					}
					if c.SojournP50 > c.SojournP95 || c.SojournP95 > c.SojournP99 {
						t.Fatalf("class %s sojourn percentiles not monotone: %d/%d/%d",
							c.Class, c.SojournP50, c.SojournP95, c.SojournP99)
					}
					if c.SojournP50 < c.WaitP50 {
						t.Fatalf("class %s sojourn p50 %d below wait p50 %d (sojourn includes execution)",
							c.Class, c.SojournP50, c.WaitP50)
					}
				}
			})
		}
	}
}

// TestArrivalConservationDetectsDrop exercises the failure arm the
// conservation suite otherwise never reaches: an injection actor that
// claims fewer deliveries than its schedule must produce deterministic
// arrival-conservation violations from the invariant checker.
func TestArrivalConservationDetectsDrop(t *testing.T) {
	arr := &arrivalActor{events: make([]arrival.Event, 3), next: 2, delivered: 2}
	m := &machine{runner: new(galois.Runner), msys: buildMem(small(1).resolve()), arr: arr}
	v := m.checkInvariants(true)
	var drop, credit bool
	for _, msg := range v {
		if strings.Contains(msg, "delivered 2 of 3 scheduled arrivals") {
			drop = true
		}
		if strings.Contains(msg, "injector delivered 2 but runner credited 0") {
			credit = true
		}
	}
	if !drop || !credit {
		t.Fatalf("dropped arrivals not flagged (drop=%v credit=%v): %q", drop, credit, v)
	}
}

// TestArrivalRejectsCountOnceKernels pins the capability gate: TC and
// BC count each triangle/traversal exactly once, so re-evaluating an
// injected node would corrupt the answer — the harness must reject the
// combination up front rather than fail verification later.
func TestArrivalRejectsCountOnceKernels(t *testing.T) {
	for _, bench := range []string{"TC", "BC"} {
		spec, err := kernels.SpecByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		_, err = Run(spec, arrivalOpts(t, "trickle"))
		if err == nil {
			t.Fatalf("%s accepted an arrival plan", bench)
		}
		if !strings.Contains(err.Error(), "does not support open-loop arrivals") {
			t.Fatalf("%s: wrong rejection: %v", bench, err)
		}
	}
}
