package harness

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"minnow/internal/kernels"
)

// TestCancelHookInert pins the cancellation layer's determinism
// contract: installing a cancel hook that never fires must not change
// ANY deterministic output — same summary hash, same wall cycles, same
// event-loop step count as a plain run.
func TestCancelHookInert(t *testing.T) {
	spec, err := kernels.SpecByName("SSSP")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(spec, obsOpts())
	if err != nil {
		t.Fatal(err)
	}
	o := obsOpts()
	polls := 0
	o.Cancel = func() bool { polls++; return false }
	armed, err := Run(spec, o)
	if err != nil {
		t.Fatal(err)
	}
	if armed.WallCycles != plain.WallCycles {
		t.Fatalf("wall cycles %d with cancel hook, %d without", armed.WallCycles, plain.WallCycles)
	}
	if armed.SimSteps != plain.SimSteps {
		t.Fatalf("sim steps %d with cancel hook, %d without", armed.SimSteps, plain.SimSteps)
	}
	if a, b := armed.Summary().Hash(), plain.Summary().Hash(); a != b {
		t.Fatalf("summary hash changed with cancel hook installed:\n  armed %s\n  plain %s", a, b)
	}
}

// TestCancelHookStopsRun cancels a run mid-flight and checks the error
// wraps ErrCanceled (the contract minnowd's cancel path dispatches on).
func TestCancelHookStopsRun(t *testing.T) {
	spec, err := kernels.SpecByName("SSSP")
	if err != nil {
		t.Fatal(err)
	}
	o := obsOpts()
	var flag atomic.Bool
	flag.Store(true) // cancel at the very first poll
	o.Cancel = flag.Load
	_, err = Run(spec, o)
	if err == nil {
		t.Fatal("canceled run returned no error")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("cancel error does not wrap ErrCanceled: %v", err)
	}
}

// TestCancelHookStopsParallelRun is TestCancelHookStopsRun on the
// bound/weave engine: the cancel poll must also stop RunParallel.
func TestCancelHookStopsParallelRun(t *testing.T) {
	spec, err := kernels.SpecByName("SSSP")
	if err != nil {
		t.Fatal(err)
	}
	o := obsOpts()
	o.IntraJobs = 2
	var flag atomic.Bool
	flag.Store(true)
	o.Cancel = flag.Load
	_, err = Run(spec, o)
	if err == nil {
		t.Fatal("canceled parallel run returned no error")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("cancel error does not wrap ErrCanceled: %v", err)
	}
}

// TestCancelYieldsToWatchdog pins the order of the one poll hook's arms:
// at a poll where the cycle budget is exceeded and Cancel also fires,
// the run reports the watchdog halt; at a poll where only Cancel fires,
// it reports ErrCanceled.
func TestCancelYieldsToWatchdog(t *testing.T) {
	spec, err := kernels.SpecByName("SSSP")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		maxCycles int64
		canceled  bool
	}{
		{"budget+cancel", 1, false},
		{"cancel-only", 0, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			o := obsOpts()
			o.MaxCycles = c.maxCycles
			polls := 0
			o.Cancel = func() bool { polls++; return true }
			_, err := Run(spec, o)
			if err == nil {
				t.Fatal("stopped run returned no error")
			}
			if got := errors.Is(err, ErrCanceled); got != c.canceled {
				t.Fatalf("errors.Is(err, ErrCanceled) = %v, want %v: %v", got, c.canceled, err)
			}
			if !c.canceled && !strings.Contains(err.Error(), "halted by watchdog: cycle budget exceeded") {
				t.Fatalf("budget halt not reported: %v", err)
			}
			// The budget arm stops the run before Cancel is consulted.
			if want := map[bool]int{false: 0, true: 1}[c.canceled]; polls != want {
				t.Fatalf("cancel polled %d times, want %d", polls, want)
			}
		})
	}
}
