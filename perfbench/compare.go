package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// gate is one regression limit -compare applies. A metric may get worse
// by at most bound: a share of the old value, or, when absolute, an
// amount in the metric's own unit. A gate with no workload applies to
// every workload.
type gate struct {
	Name     string  `json:"name"`
	Better   string  `json:"better"`
	Bound    float64 `json:"bound"`
	absolute bool
	workload string
}

// extraGates limit the metrics BENCHMARK.json cannot hold, because an
// end-to-end metric there is one every workload reports: the failure
// share, which is normally 0 and so takes an absolute bound, and the
// service's own end-to-end metrics. README.md gives the spread each
// bound was fixed from.
var extraGates = []gate{
	{Name: "ops_failed_pct", Better: "lower", Bound: 0, absolute: true},
	{Name: "svc_hit_p50_ms", Better: "lower", Bound: 0.25, workload: "svc-mixed"},
	{Name: "svc_miss_p50_ms", Better: "lower", Bound: 0.25, workload: "svc-mixed"},
	{Name: "svc_cold_jobs_per_s", Better: "higher", Bound: 0.25, workload: "svc-mixed"},
	{Name: "svc_goodput_pct", Better: "higher", Bound: 3, absolute: true, workload: "svc-mixed"},
}

// loadGates reads the end-to-end bounds from BENCHMARK.json and adds
// extraGates.
func loadGates(path string) ([]gate, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("-compare reads the bounds from the repository root: %w", err)
	}
	var decl struct {
		EndToEnd []gate `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return append(decl.EndToEnd, extraGates...), nil
}

// compareReports prints, per workload and gated metric, the change of
// the median from old to new against the metric's bound, and every
// summary hash that differs between two runs of the same seed. A pair
// whose spread between passes exceeds its bound on either side is
// unresolved rather than judged. It reports false on hash drift, on a
// regression beyond a bound, and on a gated metric it cannot judge:
// missing on either side, or 0 where the bound is a share. Reports made
// with different -seconds or tracing are not comparable at all.
func compareReports(w io.Writer, old, cur *report, gates []gate) (bool, error) {
	if old.Seconds != cur.Seconds || old.Traced != cur.Traced {
		return false, fmt.Errorf("-compare: the reports were made with -seconds %d and %d, traced %v and %v; compare runs with the same settings",
			old.Seconds, cur.Seconds, old.Traced, cur.Traced)
	}
	ok := true
	olds := map[string]*result{}
	for _, r := range old.Workloads {
		olds[r.Workload] = r
	}
	sort.SliceStable(gates, func(i, j int) bool { return gates[i].Name < gates[j].Name })
	for _, nr := range cur.Workloads {
		or, found := olds[nr.Workload]
		if !found {
			fmt.Fprintf(w, "compare %s: MISSING from the old report\n", nr.Workload)
			ok = false
			continue
		}
		for _, g := range gates {
			if g.workload != "" && g.workload != nr.Workload {
				continue
			}
			if !judge(w, nr.Workload, g, or.Metrics, nr.Metrics) {
				ok = false
			}
		}
		if old.Seed != cur.Seed {
			continue
		}
		keys := make([]string, 0, len(nr.Hashes))
		for k := range nr.Hashes {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if oh, found := or.Hashes[k]; found && oh != nr.Hashes[k] {
				fmt.Fprintf(w, "compare %s %s: HASH DRIFT %s -> %s\n", nr.Workload, k, oh, nr.Hashes[k])
				ok = false
			}
		}
	}
	if old.Seed != cur.Seed {
		fmt.Fprintf(w, "compare: seeds differ (%d, %d); summary hashes not compared\n", old.Seed, cur.Seed)
	}
	return ok, nil
}

// judge prints one gated metric's verdict and reports whether it passed.
func judge(w io.Writer, workload string, g gate, old, cur map[string]metric) bool {
	om, oHas := old[g.Name]
	nm, nHas := cur[g.Name]
	if !oHas || !nHas || (!g.absolute && (om.Value == 0 || nm.Value == 0)) {
		fmt.Fprintf(w, "compare %s %s: CANNOT JUDGE: missing or 0 on one side (old %v, new %v)\n", workload, g.Name, om.Value, nm.Value)
		return false
	}
	delta, limit := nm.Value-om.Value, fmt.Sprintf("%+.3g %s, bound %g %s", nm.Value-om.Value, nm.Unit, g.Bound, nm.Unit)
	if !g.absolute {
		delta /= om.Value
		limit = fmt.Sprintf("%+.1f%%, bound %.0f%%", 100*delta, 100*g.Bound)
	}
	worse := delta
	if g.Better == "higher" {
		worse = -delta
	}
	verdict, pass := "ok", true
	switch {
	case !g.absolute && (spread(om.Samples) > g.Bound || spread(nm.Samples) > g.Bound):
		verdict = "unresolved (spread exceeds bound)"
	case worse > g.Bound:
		verdict, pass = "REGRESSION", false
	case -worse > g.Bound:
		verdict = "improved"
	}
	fmt.Fprintf(w, "compare %s %s: %.6g -> %.6g %s (%s) %s\n", workload, g.Name, om.Value, nm.Value, nm.Unit, limit, verdict)
	return pass
}
