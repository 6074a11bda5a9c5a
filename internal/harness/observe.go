package harness

import (
	"fmt"

	"minnow/internal/core"
	"minnow/internal/cpu"
	"minnow/internal/fault"
	"minnow/internal/galois"
	"minnow/internal/mem"
	"minnow/internal/obs"
	"minnow/internal/sim"
	"minnow/internal/worklist"
)

// timelineCounterEvery is the counter-track sampling interval used when
// the timeline is enabled without an explicit MetricsEvery.
const timelineCounterEvery = 5000

// observer bundles the per-run observability state the harness wires
// between component construction and the simulation loop.
type observer struct {
	tl   *obs.Timeline
	reg  *obs.Registry
	tail *obs.EventTail // engine event tail (Options.TraceEvents)
	// onSample is the live-inspector feed (Options.OnSample): called at
	// each crossed sampling boundary with the registry's freshest row
	// rendered as Prometheus text.
	onSample func(cycles int64, metrics string)
}

// buildObserver constructs the timeline, engine event tail, and sampling
// registry selected by the options, attaches the timeline hooks to cores,
// workers, and the memory system, and gives every engine one event
// observer feeding both. It must run after every component exists and
// before the first actor steps.
//
// Everything registered here observes only: the closures read counters
// and queue lengths, never mutate them, which is what keeps RunSummary
// byte-identical (and wall cycles and event-loop steps unchanged) whether
// observability is on or off — the contract the obs harness tests pin.
func buildObserver(o Options, cores []*cpu.Core, workers []*galois.Worker,
	engines []*core.Engine, gwl *core.GlobalWL, swWL worklist.Worklist, msys *mem.System,
	inj *fault.Injector, arr *arrivalActor) *observer {

	ob := &observer{}
	if o.TraceEvents > 0 && len(engines) > 0 {
		ob.tail = obs.NewEventTail(o.TraceEvents)
	}
	var tl *obs.Timeline
	if o.Timeline {
		tl = obs.NewTimeline()
		for i, c := range cores {
			track := tl.AddTrack(fmt.Sprintf("core %d", i))
			c.TL, c.Track = tl, track
			workers[i].TL, workers[i].Track = tl, track
		}
	}
	if tl != nil || ob.tail != nil {
		for _, e := range engines {
			e.Obs = &obs.EngineObserver{Engine: e.CoreID, Tail: ob.tail, TL: tl,
				Track: tl.AddTrack(fmt.Sprintf("engine %d", e.CoreID))}
		}
	}
	if tl != nil {
		msys.TL = tl
		msys.MemTrack = tl.AddTrack("memory")
		if arr != nil {
			// One instant per injection; added only when a plan is armed
			// so closed-loop timelines are byte-identical to pre-arrival
			// output.
			arr.tl = tl
			arr.track = tl.AddTrack("arrivals")
		}
		ob.tl = tl
	}
	if o.MetricsEvery > 0 {
		ob.reg = obs.NewRegistry(sim.Time(o.MetricsEvery))
		ob.registerColumns(cores, engines, gwl, swWL, msys, inj, arr)
		ob.onSample = o.OnSample
	}
	return ob
}

// injectedFaults returns the cumulative injected-fault tally for the
// registry column and timeline counter track.
func injectedFaults(inj *fault.Injector) int64 {
	s := inj.Stats
	return s.EngineStalls + s.NoCDelays + s.DRAMRetries + s.SpillRetries +
		s.CreditsLost + s.EnginesOffline
}

// occupancyFn returns the worklist-occupancy gauge: tasks queued anywhere
// in the scheduling fabric — the software worklist for OBIM/FIFO/LIFO/
// strictpq runs, or the global worklist plus every engine's local and
// spill queues for Minnow runs (the paper's Fig. 2 occupancy).
func occupancyFn(engines []*core.Engine, gwl *core.GlobalWL, swWL worklist.Worklist) func() int64 {
	if gwl != nil {
		return func() int64 {
			n := int64(gwl.Len())
			for _, e := range engines {
				n += e.QueuedTasks()
			}
			if swWL != nil { // engine-offline failover worklist
				n += int64(swWL.Len())
			}
			return n
		}
	}
	if swWL != nil {
		return func() int64 { return int64(swWL.Len()) }
	}
	return func() int64 { return 0 }
}

// registerColumns wires the paper's time-resolved metrics: per-core IPC,
// worklist occupancy, interval L2/L3 MPKI, prefetch accuracy/coverage and
// lateness, the credit pool level, and NoC/DRAM activity.
func (ob *observer) registerColumns(cores []*cpu.Core, engines []*core.Engine,
	gwl *core.GlobalWL, swWL worklist.Worklist, msys *mem.System, inj *fault.Injector,
	arr *arrivalActor) {

	reg := ob.reg
	sumInstrs := func() int64 {
		var n int64
		for _, c := range cores {
			n += c.Stat.Instrs
		}
		return n
	}

	reg.Counter("tasks", func() int64 {
		var n int64
		for _, c := range cores {
			n += c.Stat.TasksRun
		}
		return n
	})
	reg.Gauge("occupancy", occupancyFn(engines, gwl, swWL))
	reg.Rate("l2_mpki", func() int64 { return msys.DemandL2Misses }, sumInstrs, 1000)
	reg.Rate("l3_mpki", func() int64 { return msys.L3Counters().Misses }, sumInstrs, 1000)
	reg.Rate("pf_accuracy",
		func() int64 { return msys.L2Counters().PrefetchUsed },
		func() int64 { return msys.L2Counters().PrefetchFills }, 1)
	reg.Rate("pf_coverage",
		func() int64 { return msys.L2Counters().PrefetchUsed },
		func() int64 { return msys.DemandL2Misses + msys.L2Counters().PrefetchUsed }, 1)
	if len(engines) > 0 {
		reg.Counter("pf_late_drops", func() int64 {
			var n int64
			for _, e := range engines {
				n += e.Stat.LateDrops
			}
			return n
		})
		reg.Gauge("credits", func() int64 {
			var n int64
			for _, e := range engines {
				n += int64(e.Credits())
			}
			return n
		})
		reg.Counter("credit_stalls", func() int64 {
			var n int64
			for _, e := range engines {
				n += e.Stat.CreditStalls
			}
			return n
		})
	}
	if inj != nil {
		// Registered only when a fault plan is armed, so fault-free CSVs
		// are byte-identical to pre-fault-layer output.
		reg.Counter("faults", func() int64 { return injectedFaults(inj) })
	}
	if arr != nil {
		// Registered only when an arrival plan is armed (same inertness
		// discipline as the fault column): cumulative injections give the
		// interval arrival rate, and the injected-minus-retired gauge is
		// the open-loop backlog.
		r := arr.runner
		reg.Counter("arrivals", r.Injected)
		reg.Gauge("arrival_backlog", func() int64 { return r.Injected() - r.Retired() })
	}
	reg.Counter("noc_flits", func() int64 { return msys.Mesh.Flits })
	reg.Counter("noc_stall", func() int64 { return msys.Mesh.StallCyc })
	reg.Counter("dram_acc", func() int64 { return msys.DRAM.Accesses })
	reg.Counter("dram_stall", func() int64 { return msys.DRAM.StallCyc })
	for i, c := range cores {
		c := c
		reg.Rate(fmt.Sprintf("ipc%d", i),
			func() int64 { return c.Stat.Instrs },
			func() int64 { return int64(c.Now()) }, 1)
	}
}

// install arms the simulation probe: at every crossed sampling boundary
// the registry snapshots one row and the timeline appends its counter
// tracks. With metrics off but the timeline on, counters sample at
// timelineCounterEvery.
func (ob *observer) install(eng *sim.Engine, engines []*core.Engine,
	gwl *core.GlobalWL, swWL worklist.Worklist, msys *mem.System, inj *fault.Injector,
	arr *arrivalActor) {

	every := ob.reg.Every()
	if every == 0 {
		if ob.tl == nil {
			return
		}
		every = timelineCounterEvery
	}
	occ := occupancyFn(engines, gwl, swWL)
	tl := ob.tl
	reg := ob.reg
	onSample := ob.onSample
	eng.SetProbe(every, func(at sim.Time) {
		reg.Sample(at)
		if onSample != nil {
			onSample(int64(at), reg.PromText())
		}
		if tl != nil {
			tl.Counter(obs.EvOccupancy, at, occ())
			tl.Counter(obs.EvNoCFlits, at, msys.Mesh.Flits)
			tl.Counter(obs.EvDRAMQueue, at, msys.DRAM.BusyChannels(at))
			if len(engines) > 0 {
				var cr int64
				for _, e := range engines {
					cr += int64(e.Credits())
				}
				tl.Counter(obs.EvCredits, at, cr)
			}
			if inj != nil {
				tl.Counter(obs.EvFaults, at, injectedFaults(inj))
			}
			if arr != nil {
				tl.Counter(obs.EvBacklog, at, arr.runner.Injected()-arr.runner.Retired())
			}
		}
	})
}
