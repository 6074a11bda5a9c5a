package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"minnow/internal/kernels"
	"minnow/internal/stats"
)

// profConfigs are the scheduler shapes whose attribution paths differ:
// software OBIM (enqueue/dequeue micro-ops on the core), Minnow with
// prefetching (engine latencies, backpressure, covered/late outcomes),
// and a software run with task splitting (deep operator re-enqueues).
func profConfigs() []struct {
	name string
	opts Options
} {
	obim := small(2)
	obim.Profile = true
	min := small(2)
	min.Scheduler = "minnow"
	min.Prefetch = true
	min.Profile = true
	split := small(2)
	split.SplitThreshold = 64
	split.Profile = true
	return []struct {
		name string
		opts Options
	}{
		{"obim", obim},
		{"minnow+pf", min},
		{"obim+split", split},
	}
}

// TestProfileConservation is the profiler's load-bearing arithmetic pin:
// for every core, the sum of attribution-tree leaves equals the core's
// flat cycle total, and folding each leaf back through Coarse reproduces
// the four flat CycleCat buckets exactly. No cycle is lost, invented, or
// moved between buckets by the refinement.
func TestProfileConservation(t *testing.T) {
	for _, bench := range []string{"SSSP", "CC"} {
		spec, err := kernels.SpecByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range profConfigs() {
			t.Run(bench+"/"+cfg.name, func(t *testing.T) {
				run, err := Run(spec, cfg.opts)
				if err != nil {
					t.Fatal(err)
				}
				if run.Profile == nil {
					t.Fatal("Options.Profile did not attach a profile")
				}
				if run.Profile.Total() == 0 {
					t.Fatal("profile collected no cycles")
				}
				var flat [4]int64
				for i := range run.Cores {
					core := &run.Cores[i]
					if got, want := run.Profile.Core(i).Total(), core.TotalCycles(); got != want {
						t.Errorf("core %d: profile total %d != flat total %d", i, got, want)
					}
					var coarse [4]int64
					for _, l := range run.Profile.CoreLeaves(i) {
						coarse[l.Coarse()] += l.Cycles
					}
					for cat := 0; cat < 4; cat++ {
						flat[cat] += core.Cycles[cat]
						if coarse[cat] != core.Cycles[cat] {
							t.Errorf("core %d %s: coarse fold %d != flat bucket %d",
								i, stats.CycleCat(cat), coarse[cat], core.Cycles[cat])
						}
					}
				}
				if run.Profile.CoarseBuckets() != flat {
					t.Errorf("merged CoarseBuckets %v != summed flat buckets %v",
						run.Profile.CoarseBuckets(), flat)
				}
			})
		}
	}
}

// TestProfileInert pins the observe-only contract: enabling the profiler
// changes no deterministic output — the canonical summary is
// byte-identical with profiling on and off.
func TestProfileInert(t *testing.T) {
	spec, err := kernels.SpecByName("SSSP")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range profConfigs() {
		t.Run(cfg.name, func(t *testing.T) {
			off := cfg.opts
			off.Profile = false
			plain, err := Run(spec, off)
			if err != nil {
				t.Fatal(err)
			}
			if plain.Profile != nil {
				t.Fatal("profile attached without Options.Profile")
			}
			profiled, err := Run(spec, cfg.opts)
			if err != nil {
				t.Fatal(err)
			}
			if profiled.WallCycles != plain.WallCycles {
				t.Fatalf("wall cycles %d profiled, %d plain", profiled.WallCycles, plain.WallCycles)
			}
			if profiled.SimSteps != plain.SimSteps {
				t.Fatalf("sim steps %d profiled, %d plain", profiled.SimSteps, plain.SimSteps)
			}
			a, b := profiled.Summary().JSON(), plain.Summary().JSON()
			if !bytes.Equal(a, b) {
				t.Fatalf("summary changed with profiling on:\n  with    %s\n  without %s", a, b)
			}
		})
	}
}

// TestProfileMinnowShape pins qualitative expectations on the Minnow
// profile: worklist-directed prefetching must produce covered (or
// late-partial) load leaves, and the static kernel sites must be visible
// in the folded stacks.
func TestProfileMinnowShape(t *testing.T) {
	spec, err := kernels.SpecByName("SSSP")
	if err != nil {
		t.Fatal(err)
	}
	o := small(2)
	o.Scheduler = "minnow"
	o.Prefetch = true
	o.Profile = true
	run, err := Run(spec, o)
	if err != nil {
		t.Fatal(err)
	}
	folded := run.Profile.Folded()
	for _, frag := range []string{"covered", "sssp.", "worklist-dequeue"} {
		if !bytes.Contains([]byte(folded), []byte(frag)) {
			t.Errorf("minnow folded stacks missing %q:\n%s", frag, folded)
		}
	}
}

// TestProfileStableAcrossJobs pins that the rendered artifacts are
// per-run private state: byte-identical folded stacks and pprof bytes
// whatever the worker-pool width, plus a golden-file pin on the folded
// rendering for a fixed tiny configuration. Regenerate with
// `UPDATE_GOLDEN=1 go test ./internal/harness -run ProfileStable` and review.
func TestProfileStableAcrossJobs(t *testing.T) {
	o := obsOpts()
	o.Profile = true
	o.WorkBudget = 60 // keep the golden file reviewable
	o.SkipVerify = true
	jobs := []Job{
		{Bench: "SSSP", Opts: o},
		{Bench: "CC", Opts: o},
		{Bench: "SSSP", Opts: o},
	}
	serial := RunJobs(jobs, 1)
	wide := RunJobs(jobs, 3)
	for i := range jobs {
		if serial[i].Err != nil || wide[i].Err != nil {
			t.Fatalf("job %d: %v / %v", i, serial[i].Err, wide[i].Err)
		}
		if serial[i].Run.Profile.Folded() != wide[i].Run.Profile.Folded() {
			t.Fatalf("job %d folded stacks differ between -jobs 1 and -jobs 3", i)
		}
		if !bytes.Equal(serial[i].Run.Profile.Pprof(), wide[i].Run.Profile.Pprof()) {
			t.Fatalf("job %d pprof bytes differ between -jobs 1 and -jobs 3", i)
		}
	}

	got := []byte(serial[0].Run.Profile.Folded())
	path := filepath.Join("testdata", "folded.golden.txt")
	if updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (rerun with UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("folded stacks drifted from golden file; rerun with UPDATE_GOLDEN=1 and review:\n%s", got)
	}
}
