package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"minnow/internal/kernels"
)

// updateGolden makes the golden-file tests (trace, folded, timeline and
// figures) rewrite their files instead of comparing: run
// `UPDATE_GOLDEN=1 go test ./internal/harness` and review the diff.
var updateGolden = os.Getenv("UPDATE_GOLDEN") == "1"

// obsOpts is the reference configuration the observability tests pin:
// small, Minnow with prefetching (so every track and column is live).
func obsOpts() Options {
	o := small(2)
	o.Scheduler = "minnow"
	o.Prefetch = true
	return o
}

func TestObservabilityInvisible(t *testing.T) {
	// The load-bearing contract: turning on the timeline and the metrics
	// registry must not change ANY deterministic output — same summary
	// hash, same wall cycles, same event-loop step count.
	spec, err := kernels.SpecByName("SSSP")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(spec, obsOpts())
	if err != nil {
		t.Fatal(err)
	}
	o := obsOpts()
	o.Timeline = true
	o.MetricsEvery = 10_000
	observed, err := Run(spec, o)
	if err != nil {
		t.Fatal(err)
	}
	if observed.WallCycles != plain.WallCycles {
		t.Fatalf("wall cycles %d with obs, %d without", observed.WallCycles, plain.WallCycles)
	}
	if observed.SimSteps != plain.SimSteps {
		t.Fatalf("sim steps %d with obs, %d without", observed.SimSteps, plain.SimSteps)
	}
	if a, b := observed.Summary().Hash(), plain.Summary().Hash(); a != b {
		t.Fatalf("summary hash changed with observability on:\n  with    %s\n  without %s", a, b)
	}
	if observed.Timeline.Len() == 0 {
		t.Fatal("timeline collected no events")
	}
	if observed.Intervals.Len() == 0 {
		t.Fatal("registry collected no rows")
	}
}

func TestObservabilityStableAcrossJobs(t *testing.T) {
	// The timeline and interval CSV are per-run private state; running the
	// same configuration through worker pools of different widths must
	// yield byte-identical artifacts.
	o := obsOpts()
	o.Timeline = true
	o.MetricsEvery = 10_000
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
		a := serial[i].Run.Timeline.Perfetto()
		b := wide[i].Run.Timeline.Perfetto()
		if !bytes.Equal(a, b) {
			t.Fatalf("job %d timeline differs between -jobs 1 and -jobs 3", i)
		}
		if serial[i].Run.Intervals.CSV() != wide[i].Run.Intervals.CSV() {
			t.Fatalf("job %d interval CSV differs between -jobs 1 and -jobs 3", i)
		}
	}
}

func TestTimelineGolden(t *testing.T) {
	// Golden-file pin: the Perfetto export for a fixed tiny configuration
	// is valid JSON and byte-stable across refactors. Regenerate with
	// `UPDATE_GOLDEN=1 go test ./internal/harness -run TimelineGolden`
	// and eyeball the diff (and ideally load it at ui.perfetto.dev)
	// before committing.
	spec, err := kernels.SpecByName("SSSP")
	if err != nil {
		t.Fatal(err)
	}
	o := obsOpts()
	o.Timeline = true
	o.WorkBudget = 60 // keep the golden file reviewable
	o.SkipVerify = true
	run, err := Run(spec, o)
	if err != nil {
		t.Fatal(err)
	}
	got := run.Timeline.Perfetto()

	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("export has no events")
	}

	path := filepath.Join("testdata", "timeline.golden.json")
	if updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (rerun with UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("timeline drifted from golden file (len %d vs %d); rerun with UPDATE_GOLDEN=1 and review",
			len(got), len(want))
	}
}

func TestTraceGolden(t *testing.T) {
	// Golden-file pin on the rendered engine event tail (Result.TraceText,
	// minnowsim -trace): event stamps, order, engine/core columns, and the
	// per-kind counts must stay byte-stable across refactors. The first
	// configuration starves the credit pool so the counts cover credit
	// stalls and stream drops; the second shares engines so the engine
	// and core columns differ. Regenerate with
	// `UPDATE_GOLDEN=1 go test ./internal/harness -run TraceGolden` and review.
	spec, err := kernels.SpecByName("SSSP")
	if err != nil {
		t.Fatal(err)
	}
	starved := obsOpts()
	starved.Credits = 2
	starved.TraceEvents = 40
	shared := small(4)
	shared.Scheduler = "minnow"
	shared.Prefetch = true
	shared.EngineSharing = 2
	shared.TraceEvents = 24

	var got bytes.Buffer
	for _, c := range []struct {
		name string
		o    Options
		want []string
	}{
		{"minnow+prefetch, credits 2, tail 40", starved, []string{" credit-stall=", " stream-drop="}},
		{"minnow+prefetch, engine sharing 2, tail 24", shared, nil},
	} {
		c.o.WorkBudget = 400
		c.o.SkipVerify = true
		run, err := Run(spec, c.o)
		if err != nil {
			t.Fatal(err)
		}
		text := run.Trace.String()
		for _, w := range c.want {
			if !strings.Contains(text, w) {
				t.Fatalf("%s: trace lacks %q:\n%s", c.name, w, text)
			}
		}
		got.WriteString("# " + c.name + "\n" + text)
	}
	if !sharedColumnsDiffer(got.String()) {
		t.Fatalf("no event served a core other than its engine's attach point:\n%s", got.String())
	}

	path := filepath.Join("testdata", "trace.golden.txt")
	if updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (rerun with UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("engine trace drifted from golden file; rerun with UPDATE_GOLDEN=1 and review:\n%s", got.String())
	}
}

// sharedColumnsDiffer reports whether any rendered trace line names an
// engine and a served core with different IDs.
func sharedColumnsDiffer(text string) bool {
	for _, line := range strings.Split(text, "\n") {
		var at, eng, core int64
		if n, _ := fmt.Sscanf(line, "%d eng%d core%d", &at, &eng, &core); n == 3 && eng != core {
			return true
		}
	}
	return false
}

func TestIntervalColumnsMinnow(t *testing.T) {
	// The Minnow configuration exposes the engine columns; a software run
	// must not (no engines exist to read).
	spec, err := kernels.SpecByName("SSSP")
	if err != nil {
		t.Fatal(err)
	}
	o := obsOpts()
	o.MetricsEvery = 10_000
	run, err := Run(spec, o)
	if err != nil {
		t.Fatal(err)
	}
	head := strings.Join(run.Intervals.Header(), ",")
	for _, col := range []string{"occupancy", "l2_mpki", "credits", "pf_late_drops", "ipc0", "ipc1"} {
		if !strings.Contains(head, col) {
			t.Fatalf("minnow header %q missing %q", head, col)
		}
	}
	sw := small(2)
	sw.MetricsEvery = 10_000
	swRun, err := Run(spec, sw)
	if err != nil {
		t.Fatal(err)
	}
	if h := strings.Join(swRun.Intervals.Header(), ","); strings.Contains(h, "credits") {
		t.Fatalf("software-scheduler header %q has engine columns", h)
	}
	if colIndex(swRun.Intervals, "occupancy") < 0 {
		t.Fatal("software run lost the occupancy column")
	}
}

func TestTimeseriesFigures(t *testing.T) {
	names := []string{"occupancy", "mpki-interval"}
	tables, _, err := RenderFigures(names, FigOptions{Threads: 2, Scale: 1, Seed: 7, Quick: true, Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, tb := range tables {
		if len(tb.Rows) == 0 {
			t.Fatalf("%s: empty table", names[i])
		}
		if got := len(tb.Headers); got != 3 {
			t.Fatalf("%s: %d columns", names[i], got)
		}
	}
}
