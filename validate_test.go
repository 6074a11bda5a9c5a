package minnow

import (
	"regexp"
	"strings"
	"testing"
)

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string // substring of the error; "" means valid
	}{
		{"zero value", Config{}, ""},
		{"full minnow", Config{Threads: 8, Minnow: true, Prefetch: true, Credits: 32}, ""},
		{"explicit minnow scheduler", Config{Minnow: true, Scheduler: "minnow"}, ""},
		{"faults preset", Config{Faults: "transient", Invariants: true}, ""},
		{"arrivals preset", Config{Arrivals: "steady"}, ""},
		{"arrivals clauses", Config{Arrivals: "seed=3;poisson:gap=100,count=8"}, ""},
		{"negative threads", Config{Threads: -1}, "Threads"},
		{"too many threads", Config{Threads: 65}, "sharer-mask"},
		{"negative scale", Config{Scale: -2}, "Scale"},
		{"negative credits", Config{Credits: -1}, "Credits"},
		{"negative split", Config{SplitThreshold: -3}, "SplitThreshold"},
		{"negative budget", Config{WorkBudget: -1}, "WorkBudget"},
		{"negative channels", Config{MemChannels: -5}, "MemChannels"},
		{"negative trace", Config{TraceEvents: -1}, "TraceEvents"},
		{"most channels", Config{MemChannels: 1024}, ""},
		{"most trace events", Config{TraceEvents: 1 << 20, Minnow: true}, ""},
		{"negative metrics", Config{MetricsEvery: -1}, "MetricsEvery"},
		{"negative max cycles", Config{MaxCycles: -1}, "MaxCycles"},
		{"parallel serial", Config{Serial: true, Threads: 4}, "Serial"},
		{"prefetch without minnow", Config{Prefetch: true}, "requires Minnow"},
		{"custom prefetch without prefetch", Config{Minnow: true, CustomPrefetch: func(Task, GraphView, func(...uint64)) {}}, "CustomPrefetch"},
		{"minnow vs scheduler", Config{Minnow: true, Scheduler: "obim"}, "conflicts"},
		{"unknown scheduler", Config{Scheduler: "random"}, "Scheduler: unknown"},
		{"unknown hw prefetcher", Config{HWPrefetcher: "ghb"}, "HWPrefetcher: unknown"},
		{"bad fault plan", Config{Faults: "warp-core:p=1"}, "Faults"},
		{"bad arrival plan", Config{Arrivals: "warp:gap=1"}, "Arrivals"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("valid config rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("invalid config accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestValidateErrorForm pins the Validate error-message contract: every
// message is "minnow: <Field>: <reason>", naming the offending Config
// field first. minnowd serves these strings verbatim in HTTP 400 bodies
// (docs/SERVICE.md documents clients may dispatch on the field prefix),
// so the exact texts for the PR 3–6 field additions are table-pinned
// here — changing one is an API change, not a wording tweak.
func TestValidateErrorForm(t *testing.T) {
	exact := []struct {
		name string
		cfg  Config
		want string
	}{
		{"faults", Config{Faults: "warp-core:p=1"},
			`minnow: Faults: invalid plan: fault: unknown clause "warp-core" (have engine-stall, engine-offline, noc-delay, dram-retry, spill-retry, credit-loss, seed)`},
		{"arrivals", Config{Arrivals: "warp:gap=1"},
			`minnow: Arrivals: invalid plan: arrival: unknown clause "warp" (have poisson, burst, periodic, trace, seed)`},
		{"intra jobs", Config{IntraJobs: -2},
			"minnow: IntraJobs: -2 is negative (0 selects the serial engine, n >= 1 the bound/weave engine with n workers)"},
		{"epoch window negative", Config{EpochWindow: -1},
			"minnow: EpochWindow: -1 is negative (0 selects the default window)"},
		{"epoch window without intra", Config{EpochWindow: 100},
			"minnow: EpochWindow: tunes the bound/weave engine and requires IntraJobs >= 1"},
		{"on sample without metrics", Config{OnSample: func(int64, string) {}},
			"minnow: OnSample: fires at metrics-sample boundaries and requires MetricsEvery > 0"},
		{"max cycles", Config{MaxCycles: -7},
			"minnow: MaxCycles: -7 is negative (0 selects a large default)"},
		{"scheduler conflict", Config{Minnow: true, Scheduler: "fifo"},
			`minnow: Scheduler: "fifo" conflicts with Minnow — the engine owns the worklist`},
		{"mem channels bound", Config{MemChannels: 2000000000},
			"minnow: MemChannels: 2000000000 exceeds 1024, the most DRAM channels a run may allocate"},
		{"trace events bound", Config{TraceEvents: 1<<20 + 1},
			"minnow: TraceEvents: 1048577 exceeds 1048576, the most event slots a run may preallocate"},
		{"scale bound", Config{Scale: 1 << 30},
			"minnow: Scale: 1073741824 exceeds 32, the largest input scale a run may build"},
	}
	for _, tc := range exact {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if err == nil {
				t.Fatal("invalid config accepted")
			}
			if err.Error() != tc.want {
				t.Fatalf("error message changed:\n got %q\nwant %q", err, tc.want)
			}
		})
	}

	// Every Validate error, whatever the field, must match the
	// "minnow: <Field>: " prefix form.
	form := regexp.MustCompile(`^minnow: [A-Z][A-Za-z]*: `)
	bad := []Config{
		{Threads: -1}, {Threads: 65}, {Scale: -2}, {Credits: -1},
		{SplitThreshold: -3}, {WorkBudget: -1}, {MemChannels: -5},
		{TraceEvents: -1}, {MetricsEvery: -1}, {MaxCycles: -1},
		{Serial: true, Threads: 4}, {Prefetch: true},
		{Minnow: true, CustomPrefetch: func(Task, GraphView, func(...uint64)) {}},
		{Minnow: true, Scheduler: "obim"}, {Scheduler: "random"},
		{HWPrefetcher: "ghb"}, {Faults: "bogus-kind"}, {Arrivals: "bogus-kind"},
		{IntraJobs: -1}, {EpochWindow: -1}, {EpochWindow: 5},
		{OnSample: func(int64, string) {}},
		{MemChannels: 1025}, {TraceEvents: 1<<20 + 1}, {Scale: 33},
	}
	for _, cfg := range bad {
		err := cfg.Validate()
		if err == nil {
			t.Fatalf("invalid config accepted: %+v", cfg)
		}
		if !form.MatchString(err.Error()) {
			t.Errorf("error %q does not follow the \"minnow: <Field>: <reason>\" form", err)
		}
	}
	for _, opts := range []FigureOptions{{Threads: -1}, {Threads: 128}, {Scale: -1}, {Scale: 33}, {Jobs: -2}} {
		err := opts.Validate()
		if err == nil {
			t.Fatalf("invalid FigureOptions accepted: %+v", opts)
		}
		if !form.MatchString(err.Error()) {
			t.Errorf("figure error %q does not follow the \"minnow: <Field>: <reason>\" form", err)
		}
	}
}

// TestRunRejectsInvalidConfig checks the validator actually gates the
// entry points rather than letting a bad config panic mid-simulation.
func TestRunRejectsInvalidConfig(t *testing.T) {
	if _, err := Run("SSSP", Config{MemChannels: -5}); err == nil {
		t.Fatal("Run accepted a config that panics in setup")
	}
	res := RunMany([]RunRequest{{Benchmark: "SSSP", Config: Config{Threads: -1}}}, 1)
	if res[0].Err == nil {
		t.Fatal("RunMany accepted an invalid config")
	}
	if _, err := RunChaos(Config{Threads: 99}, 1); err == nil {
		t.Fatal("RunChaos accepted an invalid config")
	}
}

func TestFigureOptionsValidate(t *testing.T) {
	for _, ok := range []FigureOptions{{}, {Scale: 32}} {
		if err := ok.Validate(); err != nil {
			t.Fatalf("valid FigureOptions %+v rejected: %v", ok, err)
		}
	}
	// Figure runs skip Config.Validate, so FigureOptions carries its own
	// Scale cap: a scale past Config's 32 would build inputs no run may.
	for _, bad := range []FigureOptions{
		{Threads: -1},
		{Threads: 128},
		{Scale: -1},
		{Scale: 33},
		{Jobs: -2},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("invalid FigureOptions accepted: %+v", bad)
		}
	}
}
