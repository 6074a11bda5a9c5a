package harness

import (
	"fmt"

	"minnow/internal/obs"
	"minnow/internal/sim"
)

// timelineCounterEvery is the counter-track sampling interval used when
// the timeline is enabled without an explicit MetricsEvery.
const timelineCounterEvery = 5000

// observe constructs the timeline, engine event tail, and sampling
// registry the options select, attaches the timeline hooks to cores,
// workers, and the memory system, gives every engine one event observer
// feeding both, and arms the sampling probe. It must run after every
// component exists and before the first actor steps.
//
// Everything registered here observes only: the closures read counters
// and queue lengths, never mutate them, which is what keeps RunSummary
// byte-identical (and wall cycles and event-loop steps unchanged) whether
// observability is on or off — the contract the obs harness tests pin.
func (m *machine) observe() {
	o := m.o
	if o.TraceEvents > 0 && len(m.engines) > 0 {
		m.tail = obs.NewEventTail(o.TraceEvents)
	}
	if o.Timeline {
		m.tl = obs.NewTimeline()
		workers := m.runner.Workers()
		for i, c := range m.cores {
			track := m.tl.AddTrack(fmt.Sprintf("core %d", i))
			c.TL, c.Track = m.tl, track
			workers[i].TL, workers[i].Track = m.tl, track
		}
	}
	if m.tl != nil || m.tail != nil {
		for _, e := range m.engines {
			e.Obs = &obs.EngineObserver{Engine: e.CoreID, Tail: m.tail, TL: m.tl,
				Track: m.tl.AddTrack(fmt.Sprintf("engine %d", e.CoreID))}
		}
	}
	if m.tl != nil {
		m.msys.TL = m.tl
		m.msys.MemTrack = m.tl.AddTrack("memory")
		if m.arr != nil {
			// One instant per injection; added only when a plan is armed
			// so closed-loop timelines are byte-identical to pre-arrival
			// output.
			m.arr.tl = m.tl
			m.arr.track = m.tl.AddTrack("arrivals")
		}
	}
	if o.MetricsEvery > 0 {
		m.reg = obs.NewRegistry(sim.Time(o.MetricsEvery))
		m.registerColumns()
	}
	m.installProbe()
}

// occupancy is the worklist-occupancy gauge: tasks queued anywhere in
// the scheduling fabric — the software worklist for OBIM/FIFO/LIFO/
// strictpq runs, or the global worklist plus every engine's local and
// spill queues (and the engine-offline failover worklist) for Minnow
// runs (the paper's Fig. 2 occupancy).
func (m *machine) occupancy() int64 {
	var n int64
	if m.gwl != nil {
		n = int64(m.gwl.Len())
	}
	for _, e := range m.engines {
		n += e.QueuedTasks()
	}
	if m.swWL != nil {
		n += int64(m.swWL.Len())
	}
	return n
}

// credits is the credit-pool gauge: free prefetch credits summed over
// every engine.
func (m *machine) credits() int64 {
	var n int64
	for _, e := range m.engines {
		n += int64(e.Credits())
	}
	return n
}

// injectedFaults is the cumulative injected-fault tally.
func (m *machine) injectedFaults() int64 {
	s := m.inj.Stats
	return s.EngineStalls + s.NoCDelays + s.DRAMRetries + s.SpillRetries +
		s.CreditsLost + s.EnginesOffline
}

// backlog is the open-loop backlog gauge: arrivals injected but not yet
// retired.
func (m *machine) backlog() int64 { return m.runner.Injected() - m.runner.Retired() }

// registerColumns wires the paper's time-resolved metrics: per-core IPC,
// worklist occupancy, interval L2/L3 MPKI, prefetch accuracy/coverage and
// lateness, the credit pool level, and NoC/DRAM activity.
func (m *machine) registerColumns() {
	reg, msys, cores, engines := m.reg, m.msys, m.cores, m.engines
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
	reg.Gauge("occupancy", m.occupancy)
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
		reg.Gauge("credits", m.credits)
		reg.Counter("credit_stalls", func() int64 {
			var n int64
			for _, e := range engines {
				n += e.Stat.CreditStalls
			}
			return n
		})
	}
	if m.inj != nil {
		// Registered only when a fault plan is armed, so fault-free CSVs
		// are byte-identical to pre-fault-layer output.
		reg.Counter("faults", m.injectedFaults)
	}
	if m.arr != nil {
		// Registered only when an arrival plan is armed (same inertness
		// discipline as the fault column): cumulative injections give the
		// interval arrival rate, and the injected-minus-retired gauge is
		// the open-loop backlog.
		reg.Counter("arrivals", m.runner.Injected)
		reg.Gauge("arrival_backlog", m.backlog)
	}
	reg.Counter("noc_flits", func() int64 { return msys.Mesh.Flits })
	reg.Counter("noc_stall", func() int64 { return msys.Mesh.StallCyc })
	reg.Counter("dram_acc", func() int64 { return msys.DRAM.Accesses })
	reg.Counter("dram_stall", func() int64 { return msys.DRAM.StallCyc })
	for i, c := range cores {
		reg.Rate(fmt.Sprintf("ipc%d", i),
			func() int64 { return c.Stat.Instrs },
			func() int64 { return int64(c.Now()) }, 1)
	}
}

// installProbe arms the simulation probe: at every crossed sampling
// boundary the registry snapshots one row and the timeline appends its
// counter tracks. With metrics off but the timeline on, counters sample
// at timelineCounterEvery.
func (m *machine) installProbe() {
	every := m.reg.Every()
	if every == 0 {
		if m.tl == nil {
			return
		}
		every = timelineCounterEvery
	}
	reg, tl, onSample := m.reg, m.tl, m.o.OnSample
	if reg == nil {
		onSample = nil
	}
	m.eng.SetProbe(every, func(at sim.Time) {
		reg.Sample(at)
		if onSample != nil {
			onSample(int64(at), reg.PromText())
		}
		if tl != nil {
			tl.Counter(obs.EvOccupancy, at, m.occupancy())
			tl.Counter(obs.EvNoCFlits, at, m.msys.Mesh.Flits)
			tl.Counter(obs.EvDRAMQueue, at, m.msys.DRAM.BusyChannels(at))
			if len(m.engines) > 0 {
				tl.Counter(obs.EvCredits, at, m.credits())
			}
			if m.inj != nil {
				tl.Counter(obs.EvFaults, at, m.injectedFaults())
			}
			if m.arr != nil {
				tl.Counter(obs.EvBacklog, at, m.backlog())
			}
		}
	})
}
