package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"minnow"
)

// kernel is one simulated benchmark run of a sim workload: the kernel,
// its input class and its input scale.
type kernel struct {
	bench string
	scale int
	gen   func(scale int, seed uint64) *minnow.Graph
}

// The inputs of the paper's Table-1 classes at the sizes the repository's
// kernel registry uses per unit of scale.
func sssp(scale int) kernel {
	return kernel{"SSSP", scale, func(s int, seed uint64) *minnow.Graph { return minnow.NewRoadMesh(22500*s, seed) }}
}

func pr(scale int) kernel {
	return kernel{"PR", scale, func(s int, seed uint64) *minnow.Graph { return minnow.NewPowerLawTalk(16384*s, seed) }}
}

func cc(scale int) kernel {
	return kernel{"CC", scale, func(s int, seed uint64) *minnow.Graph { return minnow.NewSmallWorld(12288*s, 6, seed) }}
}

// simWorkload runs its kernels, in order, once per pass on one simulated
// machine configuration.
type simWorkload struct {
	name    string
	kernels []kernel
	cfg     minnow.Config
}

var (
	// simSW runs the OBIM software worklist: host time goes to the core
	// model and the worklist; the Minnow engine does no work.
	simSW = simWorkload{"sim-sw", []kernel{sssp(4), pr(4), cc(4)},
		minnow.Config{Threads: 16, SplitThreshold: 512}}
	// simMinnow runs the same graphs with Minnow engines and
	// worklist-directed prefetching: many light event-loop steps.
	simMinnow = simWorkload{"sim-minnow", []kernel{sssp(4), pr(4), cc(4)},
		minnow.Config{Threads: 16, Minnow: true, Prefetch: true, SplitThreshold: 512}}
	// sim64c is the paper's Table-3 machine on the bound/weave engine
	// with shared horizons, the only workload where intra-run
	// parallelism, the 64-sharer directory and the 8x8 mesh carry work.
	sim64c = simWorkload{"sim-64c", []kernel{sssp(2), pr(4)},
		minnow.Config{Threads: 64, Minnow: true, Prefetch: true, SplitThreshold: 512,
			IntraJobs: 2, SharedHorizons: true}}
)

// setupBuilds is how many times set-up builds the inputs; setup_s is the
// median build.
const setupBuilds = 5

// summary is the part of the canonical RunSummary the model counts read.
type summary struct {
	WallCycles int64 `json:"wall_cycles"`
	SimSteps   int64 `json:"sim_steps"`
	WorkItems  int64 `json:"work_items"`
	Cores      []struct {
		Instrs, EnqOps, DeqOps, EnqCycles, DeqCycles int64
	} `json:"cores"`
	Engines    []struct{ Prefetches int64 }                        `json:"engines"`
	L2         struct{ Misses, PrefetchFills, PrefetchUsed int64 } `json:"l2"`
	L3         struct{ Misses int64 }                              `json:"l3"`
	DRAMReads  int64                                               `json:"dram_reads"`
	InvMsgs    int64                                               `json:"inv_msgs"`
	DRAMStall  int64                                               `json:"dram_stall"`
	NoCStall   int64                                               `json:"noc_stall"`
	LatByLevel [5]int64                                            `json:"lat_by_level"`
	CntByLevel [5]int64                                            `json:"cnt_by_level"`
}

// totals accumulates the simulated counts of several runs: a pass's
// kernels, or the service's open-loop cold jobs.
type totals struct {
	cycles, instrs, work, steps, bound                 int64
	l2Miss, l3Miss, dramReads, dramStall, nocStall     int64
	invMsgs, pfFills, pfUsed, enginePF                 int64
	enqOps, deqOps, enqCyc, deqCyc, loadLat, loadCount int64
}

// add accumulates one run's canonical summary.
func (t *totals) add(summaryJSON []byte) error {
	var s summary
	if err := json.Unmarshal(summaryJSON, &s); err != nil {
		return fmt.Errorf("summary: %w", err)
	}
	t.cycles += s.WallCycles
	t.steps += s.SimSteps
	t.work += s.WorkItems
	t.l2Miss += s.L2.Misses
	t.l3Miss += s.L3.Misses
	t.pfFills += s.L2.PrefetchFills
	t.pfUsed += s.L2.PrefetchUsed
	t.dramReads += s.DRAMReads
	t.dramStall += s.DRAMStall
	t.nocStall += s.NoCStall
	t.invMsgs += s.InvMsgs
	for _, c := range s.Cores {
		t.instrs += c.Instrs
		t.enqOps += c.EnqOps
		t.deqOps += c.DeqOps
		t.enqCyc += c.EnqCycles
		t.deqCyc += c.DeqCycles
	}
	for _, e := range s.Engines {
		t.enginePF += e.Prefetches
	}
	for i := range s.LatByLevel {
		t.loadLat += s.LatByLevel[i]
		t.loadCount += s.CntByLevel[i]
	}
	return nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// report records the model counts and event-loop steps.
func (t *totals) report(r *result) {
	r.set("model.cycles", "cycles", float64(t.cycles))
	r.set("model.instrs", "uops", float64(t.instrs))
	r.set("model.work_items", "count", float64(t.work))
	r.set("model.l2_mpki", "1/kuop", 1000*ratio(t.l2Miss, t.instrs))
	r.set("model.l3_misses", "count", float64(t.l3Miss))
	r.set("model.avg_load_lat_cyc", "cycles", ratio(t.loadLat, t.loadCount))
	r.set("model.dram_reads", "count", float64(t.dramReads))
	r.set("model.dram_stall_cyc", "cycles", float64(t.dramStall))
	r.set("model.noc_stall_cyc", "cycles", float64(t.nocStall))
	r.set("model.inv_msgs", "count", float64(t.invMsgs))
	r.set("model.prefetch_eff", "ratio", ratio(t.pfUsed, t.pfFills))
	r.set("model.engine_prefetches", "count", float64(t.enginePF))
	r.set("model.enq_cyc", "cycles", ratio(t.enqCyc, t.enqOps))
	r.set("model.deq_cyc", "cycles", ratio(t.deqCyc, t.deqOps))
	r.set("sim.steps", "count", float64(t.steps))
	r.set("sim.bound_pct", "%", 100*ratio(t.bound, t.steps))
}

func (w simWorkload) run(o options) (*result, error) {
	res := newResult(w.name)
	kernels, cfg := w.kernels, w.cfg
	if o.tiny {
		kernels = []kernel{{kernels[0].bench, 1, kernels[0].gen}}
		cfg.Threads = 2
	}

	// Set-up: generate every input, several times, and keep the last set.
	// Every build and kernel run follows a garbage collection and a
	// calibration loop (calib.go), so it starts from the same heap: with
	// the collection left to chance, peak_rss_mb spread by 32% over 10
	// runs of sim-sw, and by at most 3% with it.
	var clk clock
	var graphs []*minnow.Graph
	var builds []float64
	for b := 0; b < setupBuilds; b++ {
		graphs = nil
		clk.sample(1)
		t0 := time.Now()
		for _, k := range kernels {
			graphs = append(graphs, k.gen(k.scale, o.seed))
		}
		o.spans.add("build inputs", "setup", 0, "", t0, time.Now())
		builds = append(builds, time.Since(t0).Seconds())
	}

	// Measure: run passes until another would overrun o.seconds. A pass's
	// time is the sum of its kernel runs.
	var passS, mips, stepsPerS []float64
	var rt [len(runtimeMetrics)][]float64
	perKernel := map[string][]float64{}
	stopProfile, err := startProfile(o.profile)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(o.seconds)
	for pass := 0; ; pass++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var tot totals
		var dt float64
		t0 := time.Now()
		for i, k := range kernels {
			res.Attempted++
			clk.sample(1)
			tk := time.Now()
			r, err := minnow.RunGraph(k.bench, graphs[i], 0, cfg)
			o.spans.add(k.bench, "kernel", 0, "", tk, time.Now())
			dk := time.Since(tk).Seconds()
			dt += dk
			perKernel[k.bench] = append(perKernel[k.bench], dk)
			if err != nil {
				res.fail("pass %d %s: %v", pass, k.bench, err)
				continue
			}
			if r.TimedOut {
				res.fail("pass %d %s: hit the work budget", pass, k.bench)
			}
			if prev, seen := res.Hashes[k.bench]; !seen {
				res.Hashes[k.bench] = r.SummaryHash
			} else if prev != r.SummaryHash {
				res.fail("pass %d %s: summary hash %s differs from pass 0's %s", pass, k.bench, r.SummaryHash, prev)
			}
			tot.bound += r.BoundSteps
			if err := tot.add(r.SummaryJSON); err != nil {
				res.fail("pass %d %s: %v", pass, k.bench, err)
			}
		}
		o.spans.add(fmt.Sprintf("pass %d", pass), "pass", 1, "", t0, time.Now())
		runtime.ReadMemStats(&after)
		passS = append(passS, dt)
		mips = append(mips, float64(tot.instrs)/dt/1e6)
		stepsPerS = append(stepsPerS, float64(tot.steps)/dt)
		for i, v := range runtimeDelta(&before, &after) {
			rt[i] = append(rt[i], v)
		}
		if pass == 0 {
			tot.report(res)
		}
		if o.tiny || time.Until(deadline).Seconds() < time.Since(t0).Seconds() {
			break
		}
	}
	res.profile = stopProfile()
	if err := res.setHostTime(len(passS)); err != nil {
		return nil, err
	}

	// The end-to-end host times in the host's reference state; the raw
	// ones beside them.
	f := clk.factor()
	clk.record(res)
	res.setMedian("setup_s", "s", scaled(builds, f))
	res.setMedian("run_s", "s", scaled(passS, f))
	res.setMedian("sim_mips", "Muops/s", scaled(mips, 1/f))
	res.setMedian("wall.setup_s", "s", builds)
	res.setMedian("wall.run_s", "s", passS)
	res.setMedian("wall.sim_mips", "Muops/s", mips)
	res.setMedian("sim.steps_per_s", "1/s", stepsPerS)
	for i, m := range runtimeMetrics {
		res.setMedian(m.name, m.unit, rt[i])
	}
	for bench, s := range perKernel {
		res.setMedian("kernel."+bench+".run_s", "s", s)
	}
	return res, nil
}
