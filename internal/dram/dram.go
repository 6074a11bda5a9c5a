// Package dram models main memory: N independent channels (Table 3:
// 12-channel DDR4-2400 CL17), line-address interleaved, each with a fixed
// access latency plus a bandwidth-limited service slot modeled as a
// busy-until reservation.
//
// At 2.5 GHz core clock, one DDR4-2400 channel moves a 64B line in
// ~3.3 ns ≈ 8 core cycles, and CL17 plus controller overhead lands the
// idle-latency around 120 core cycles; those are the defaults.
//
// Determinism contract: channel selection hashes the line address and
// service times depend only on prior reservations, so a given access
// sequence always produces identical latencies. BusyChannels is the
// read-only occupancy view the observability probes sample; it never
// mutates reservation state.
//
// Bound/weave placement: channel service slots are busy-until
// reservations shared by every actor whose misses reach memory, so DRAM
// access is weave-only under sim.Engine.RunParallel — the same rule as
// the mesh and the L3 banks in front of it; actors that can reach it
// declare sim.HorizonAlwaysWeave.
package dram

import "minnow/internal/sim"

// Config sets the memory system parameters.
type Config struct {
	Channels      int      // number of independent channels
	LatencyCycles sim.Time // idle access latency (core cycles)
	ServiceCycles sim.Time // channel occupancy per 64B access (bandwidth)
}

// DefaultConfig mirrors Table 3.
func DefaultConfig() Config {
	return Config{Channels: 12, LatencyCycles: 120, ServiceCycles: 8}
}

// Memory is the channel-interleaved DRAM model.
type Memory struct {
	cfg      Config
	nextFree []sim.Time

	Accesses  int64
	StallCyc  int64 // cycles requests waited for a busy channel
	PeakQueue sim.Time

	// FaultRetry, when non-nil, returns injected retry latency added to
	// each access (deterministic fault injection). Nil in fault-free runs,
	// costing one comparison per access.
	FaultRetry func() sim.Time
}

// New returns a memory with the given configuration. Channels must be >= 1.
func New(cfg Config) *Memory {
	if cfg.Channels < 1 {
		panic("dram: need at least one channel")
	}
	return &Memory{cfg: cfg, nextFree: make([]sim.Time, cfg.Channels)}
}

// Config returns the active configuration.
func (m *Memory) Config() Config { return m.cfg }

// channelOf interleaves consecutive lines across channels.
func (m *Memory) channelOf(lineAddr uint64) int {
	return int(lineAddr % uint64(m.cfg.Channels))
}

// contentionWindow bounds how much of a channel reservation a lagging
// request waits on: reservations made more than this far ahead of the
// arrival reflect simulation clock skew between actors, not real queueing
// (see the mesh model for the same treatment).
const contentionWindow = 256

// Access services a 64B line request arriving at time t and returns the
// time its data is available at the memory controller.
func (m *Memory) Access(lineAddr uint64, t sim.Time) sim.Time {
	ch := m.channelOf(lineAddr)
	m.Accesses++
	start := t
	if m.nextFree[ch] > start && m.nextFree[ch]-start <= contentionWindow {
		m.StallCyc += int64(m.nextFree[ch] - start)
		if m.nextFree[ch]-start > m.PeakQueue {
			m.PeakQueue = m.nextFree[ch] - start
		}
		start = m.nextFree[ch]
	}
	if start+m.cfg.ServiceCycles > m.nextFree[ch] {
		m.nextFree[ch] = start + m.cfg.ServiceCycles
	}
	done := start + m.cfg.LatencyCycles
	if m.FaultRetry != nil {
		done += m.FaultRetry()
	}
	return done
}

// BusyChannels returns how many channels hold a service reservation
// extending past `now` — the instantaneous queue-occupancy gauge the
// observability sampler reads. Read-only: sampling it never perturbs
// timing.
func (m *Memory) BusyChannels(now sim.Time) int64 {
	var n int64
	for _, f := range m.nextFree {
		if f > now {
			n++
		}
	}
	return n
}

// Reset clears reservations and counters.
func (m *Memory) Reset() {
	for i := range m.nextFree {
		m.nextFree[i] = 0
	}
	m.Accesses, m.StallCyc, m.PeakQueue = 0, 0, 0
}
