package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAllFiguresQuick renders every figure in quick mode at 16 threads
// and scale 1 and pins each table, plus one "bench SummaryHash" line per
// distinct run in submission order, against
// testdata/figures.quick.golden. A change that moves a summary hash thus
// shows which figure cells moved and by how much. Regenerate with
// `UPDATE_GOLDEN=1 go test ./internal/harness -run TestAllFiguresQuick`
// and review the diff.
func TestAllFiguresQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep")
	}
	names := FigureNames()
	tables, runs, err := RenderFigures(names, FigOptions{Threads: 16, Scale: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for i, name := range names {
		fmt.Fprintf(&got, "=== %s ===\n%s\n", name, tables[i])
	}
	got.WriteString("=== runs ===\n")
	for _, r := range runs {
		fmt.Fprintf(&got, "%s %s\n", r.Job.Bench, r.Run.Summary().Hash())
	}

	path := filepath.Join("testdata", "figures.quick.golden")
	if updateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (rerun with UPDATE_GOLDEN=1): %v", err)
	}
	gotSec, wantSec := goldenSections(got.String()), goldenSections(string(data))
	if len(gotSec) != len(wantSec) {
		t.Errorf("golden file has %d sections, the figure table renders %d; rerun with UPDATE_GOLDEN=1 and review",
			len(wantSec), len(gotSec))
	}
	for i, name := range append(names, "runs") {
		t.Run(name, func(t *testing.T) {
			if gotSec[name] != wantSec[name] {
				t.Errorf("drifted from golden file; rerun with UPDATE_GOLDEN=1 and review:\n--- got\n%s--- want\n%s",
					gotSec[name], wantSec[name])
			}
			if name != "sojourn" {
				return
			}
			// The open-loop contract the walkthrough reads off the table:
			// every injected arrival retires.
			for _, row := range tables[i].Rows {
				if row[1] != row[2] {
					t.Errorf("sojourn row %v: injected != retired", row)
				}
			}
		})
	}
}

// goldenSections splits a rendering at its "=== name ===" lines.
func goldenSections(s string) map[string]string {
	out := map[string]string{}
	name := ""
	for _, line := range strings.SplitAfter(s, "\n") {
		if n, ok := strings.CutPrefix(line, "=== "); ok {
			name = strings.TrimSuffix(n, " ===\n")
			continue
		}
		out[name] += line
	}
	return out
}
