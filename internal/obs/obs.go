// Package obs is the simulator's observability layer: a full-system event
// vocabulary, a timeline collector that exports Chrome trace-event /
// Perfetto JSON (one track per core, engine, and the shared memory
// system), and a cheap time-series sampling registry that snapshots
// counters at fixed simulated-cycle intervals and renders interval CSV.
//
// It exists to make the paper's *time-resolved* arguments reproducible:
// worklist occupancy ramps (Fig. 2's motivation), the L2 MPKI collapse
// under worklist-directed prefetching (§6.3), and credit-throttled
// prefetch bursts (§5.3.1) are all invisible in end-of-run aggregates.
// Minnow engines emit each event once, to an EngineObserver, which
// routes it to the bounded engine event tail (minnowsim -trace) and to
// the engine's timeline track, so engine events and full-system events
// share one taxonomy (documented in docs/OBSERVABILITY.md).
//
// Determinism contract: observers never schedule. Nothing in this package
// wakes an actor, advances a clock, or mutates simulation state — the
// Timeline and Registry only read counters and append to private buffers.
// Enabling observability must not change wall cycles, event-loop steps,
// or any RunSummary field; the harness tests assert exactly that. All
// collection entry points are nil-receiver-safe, so a disabled
// (nil) Timeline, Registry, or EngineObserver costs one branch per
// instrumented site.
package obs

import "fmt"

// Kind classifies an observability event. The first block is the Minnow
// engine vocabulary (EngineObserver, EventTail); the second block extends
// it to cores, caches, and the memory fabric; the final block names the
// sampled counter tracks.
type Kind uint8

const (
	// EvEnqueue is a minnow_enqueue accepted into a local queue.
	EvEnqueue Kind = iota
	// EvEnqueueSpill is a minnow_enqueue routed to the spill queue.
	EvEnqueueSpill
	// EvDequeue is a successful minnow_dequeue.
	EvDequeue
	// EvDequeueEmpty is a minnow_dequeue that found the local queue empty.
	EvDequeueEmpty
	// EvSpill is a spill threadlet batch completing.
	EvSpill
	// EvFill is a fill threadlet completing.
	EvFill
	// EvPrefetch is one prefetch threadlet issuing its loads.
	EvPrefetch
	// EvCreditStall is the prefetcher pausing on an empty credit pool.
	EvCreditStall
	// EvStreamDrop is a stale prefetch stream being cancelled.
	EvStreamDrop
	// EvFlush is a minnow_flush.
	EvFlush

	// EvTask is one operator application on a core (timeline span; the
	// argument is the task's node ID).
	EvTask
	// EvStallLoad is a core retire-stall attributed to a load miss
	// (instant; the argument is the stall length in cycles).
	EvStallLoad
	// EvStallStore is a core retire-stall attributed to a store or atomic
	// (instant; the argument is the stall length in cycles).
	EvStallStore
	// EvL2Miss is a demand access missing a core's L2 (instant; the
	// argument is the level that finally supplied the line: 3=L3, 4=DRAM).
	EvL2Miss
	// EvWriteback is a dirty line displaced from an L2 (instant).
	EvWriteback
	// EvStallFence is a core retire-stall attributed to an atomic
	// read-modify-write and its x86-TSO fence serialization (instant; the
	// argument is the stall length in cycles).
	EvStallFence
	// EvStallBranch is a core retire-stall attributed to a
	// branch-mispredict pipeline refill (instant; the argument is the
	// stall length in cycles).
	EvStallBranch
	// EvStallWorklist is a core stall inside a worklist operation — a
	// blocked enqueue/dequeue, spill backpressure, or the idle spin
	// between failed dequeues (instant; the argument is the stall length
	// in cycles).
	EvStallWorklist
	// EvStallDep is a retire gap inside useful work with no miss or
	// mispredict to blame: dependence chains and issue-width limits
	// resolving late (instant; the argument is the stall length in
	// cycles).
	EvStallDep

	// EvOccupancy is the worklist occupancy counter track: tasks queued
	// anywhere (global worklist + local queues + spill queues).
	EvOccupancy
	// EvCredits is the prefetch credit pool counter track (summed over
	// engines).
	EvCredits
	// EvDRAMQueue is the DRAM counter track: channels with a pending
	// service reservation at the sample instant.
	EvDRAMQueue
	// EvNoCFlits is the cumulative NoC link-traversal counter track.
	EvNoCFlits
	// EvFaults is the cumulative injected-fault counter track (present
	// only when a fault plan is armed).
	EvFaults
	// EvArrival is one open-loop task injection (instant on the arrivals
	// track; the argument is the injected node ID).
	EvArrival
	// EvBacklog is the open-loop backlog counter track: arrival tasks
	// injected but not yet retired (present only when an arrival plan is
	// armed).
	EvBacklog

	// NumKinds bounds the Kind space (per-kind count arrays).
	NumKinds
)

// String returns the event label used in trace dumps, timeline track
// names, and the Perfetto export.
func (k Kind) String() string {
	switch k {
	case EvEnqueue:
		return "enqueue"
	case EvEnqueueSpill:
		return "enqueue-spill"
	case EvDequeue:
		return "dequeue"
	case EvDequeueEmpty:
		return "dequeue-empty"
	case EvSpill:
		return "spill"
	case EvFill:
		return "fill"
	case EvPrefetch:
		return "prefetch"
	case EvCreditStall:
		return "credit-stall"
	case EvStreamDrop:
		return "stream-drop"
	case EvFlush:
		return "flush"
	case EvTask:
		return "task"
	case EvStallLoad:
		return "stall-load"
	case EvStallStore:
		return "stall-store"
	case EvL2Miss:
		return "l2-miss"
	case EvWriteback:
		return "writeback"
	case EvStallFence:
		return "stall-fence"
	case EvStallBranch:
		return "stall-branch"
	case EvStallWorklist:
		return "stall-worklist"
	case EvStallDep:
		return "stall-dep"
	case EvOccupancy:
		return "worklist-occupancy"
	case EvCredits:
		return "credits"
	case EvDRAMQueue:
		return "dram-queue"
	case EvNoCFlits:
		return "noc-flits"
	case EvFaults:
		return "faults-injected"
	case EvArrival:
		return "arrival"
	case EvBacklog:
		return "arrival-backlog"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}
