// Package worklist implements the software worklists the paper builds on:
// Galois-style chunked FIFO/LIFO, the OBIM partial-priority worklist
// (Lenharth et al.), and a strict priority queue (Dijkstra-style), each
// with an explicit micro-op cost model.
//
// The data-structure behaviour (which task comes out when) is executed for
// real, so work-efficiency effects are genuine; simultaneously each
// operation emits the loads/stores/atomics a tuned C++ implementation
// would perform against *shared simulated addresses*, so scheduling
// overhead, coherence traffic on queue heads, and lock serialization
// emerge from the memory model rather than being assumed.
//
// Determinism contract: pop order depends only on push order and the
// caller's thread ID (the min-time actor ordering serializes concurrent
// access), so worklist contents — including the Len the observability
// occupancy gauge reads — are reproducible at every simulated instant.
//
// Bound/weave placement: a worklist's pop order is exactly the state the
// (time, ID) actor ordering exists to serialize, so shared worklists are
// weave-only under sim.Engine.RunParallel. A worker whose next step pops
// therefore declares sim.HorizonAlwaysWeave — the explicit sentinel, not
// a computed 0 — unless its worklist (and everything behind it) is a
// private copy, or the step is a deferred idle backoff that touches no
// worklist at all (galois.Config.SharedHorizons).
package worklist

import (
	"minnow/internal/cpu"
	"minnow/internal/graph"
	"minnow/internal/sim"
	"minnow/internal/uops"
)

// Task is one unit of scheduled work: an integer priority plus a payload
// (a Minnow task is "two 64-bit values: an integer priority and a pointer
// to the task data", §4.1). Lower priority values are scheduled first.
type Task struct {
	Priority int64
	Node     int32
	// EdgeLo/EdgeHi restrict the task to a sub-range of the node's edges
	// when task splitting (§6.2.1) is active. EdgeHi < 0 means the whole
	// node.
	EdgeLo, EdgeHi int32
	// Desc is the simulated address of the task descriptor.
	Desc uint64
	// Birth is the simulated cycle an open-loop arrival task was injected
	// (meaningful only when Class > 0); the retire path threads it into
	// the per-class sojourn/queue-wait latency statistics. Tasks travel
	// the whole scheduling fabric — software worklists, engine local and
	// spill queues, the global worklist — as Go values, so Birth and
	// Class survive every spill/fill/rescue path unchanged.
	Birth int64
	// Class tags an injected arrival task with 1 + its arrival-class
	// index. The zero value marks ordinary closed-loop work (seeded or
	// operator-generated), so the arrival layer is invisible when off.
	Class int32
}

// WholeNode reports whether the task covers all of its node's edges.
func (t Task) WholeNode() bool { return t.EdgeHi < 0 }

// Ctx carries the executing core and a reusable trace through worklist
// calls.
type Ctx struct {
	Core *cpu.Core
	TR   uops.Trace
	// Serial elides atomics (the optimized serial baseline "uses Galois
	// but has atomics removed", §6.3.1).
	Serial bool
}

// atomic emits an atomic RMW, or a plain load+store in serial mode.
func (c *Ctx) atomic(addr uint64) {
	if c.Serial {
		c.TR.Load(addr, false, false)
		c.TR.Store(addr)
	} else {
		c.TR.Atomic(addr)
	}
}

// flush runs the accumulated trace on the core, in the enqueue or
// dequeue region the caller bracketed the operation in.
func (c *Ctx) flush() {
	if len(c.TR.Ops) > 0 {
		c.Core.Run(c.TR.Ops)
		c.TR.Reset()
	}
}

// Worklist is the scheduler interface shared by software worklists and
// (via the galois framework's adapter) the Minnow engine.
type Worklist interface {
	// Push schedules a task, charging its cost to ctx.Core.
	Push(ctx *Ctx, t Task)
	// Pop returns the next task for ctx.Core's thread. ok=false means no
	// task was available *right now* (not necessarily termination).
	Pop(ctx *Ctx) (Task, bool)
	// Len returns the number of queued tasks (bookkeeping, zero cost).
	Len() int
	// Name identifies the policy in reports.
	Name() string
}

// Conserved is implemented by worklists that count lifetime pushes and
// pops, letting the harness invariant checker assert task conservation:
// at any quiescent point, Pushed() == Popped() + Len(). All three
// software worklists (fifo/lifo, obim, strict-pq) implement it.
type Conserved interface {
	// Pushed returns the lifetime number of tasks pushed.
	Pushed() int64
	// Popped returns the lifetime number of tasks successfully popped.
	Popped() int64
}

// lock models a spinlock-guarded critical section with pessimistic
// reservation: acquire reserves the lock for an estimated hold time and
// release truncates the reservation to the actual end. Contending cores
// spin (cycles charged to the worklist category).
type lock struct {
	addr   uint64
	freeAt sim.Time
	// Contentions counts acquisitions that had to wait.
	Contentions int64
}

const lockHoldEstimate = 60 // cycles reserved pessimistically at acquire

func newLock(as *graph.AddrSpace) lock {
	return lock{addr: as.Alloc(64)}
}

// acquire spins until the lock is free, then reserves it.
func (l *lock) acquire(ctx *Ctx) {
	ctx.atomic(l.addr)
	ctx.flush()
	if l.freeAt > ctx.Core.Now() {
		l.Contentions++
		ctx.Core.Advance(l.freeAt)
		// Retry CAS once the holder released.
		ctx.atomic(l.addr)
		ctx.flush()
	}
	l.freeAt = ctx.Core.Now() + lockHoldEstimate
}

// release ends the critical section at the core's current time.
func (l *lock) release(ctx *Ctx) {
	ctx.TR.Store(l.addr)
	ctx.flush()
	l.freeAt = ctx.Core.Now()
}

// descArena hands out simulated task-descriptor addresses from
// per-thread rings (Galois allocates scheduler metadata from per-thread
// allocators — a shared bump allocator would false-share descriptor lines
// between pushing threads). Descriptors are recycled FIFO, 16 bytes each
// (§4.1).
type descArena struct {
	base []uint64
	size uint64
	next []uint64
}

func newDescArena(as *graph.AddrSpace, entries int) *descArena {
	return newDescArenaThreads(as, entries, 64)
}

func newDescArenaThreads(as *graph.AddrSpace, entries, threads int) *descArena {
	a := &descArena{size: uint64(entries) * 16}
	for i := 0; i < threads; i++ {
		a.base = append(a.base, as.Alloc(a.size))
		a.next = append(a.next, 0)
	}
	return a
}

// alloc returns the next descriptor address from tid's ring.
func (a *descArena) alloc(tid int) uint64 {
	if tid >= len(a.base) {
		tid = len(a.base) - 1
	}
	d := a.base[tid] + a.next[tid]
	a.next[tid] += 16
	if a.next[tid] >= a.size {
		a.next[tid] = 0
	}
	return d
}

// chunk is a fixed-capacity run of tasks with a simulated base address.
// Chunks are the unit moved between local and global queues.
type chunk struct {
	addr  uint64
	tasks []Task
}

const chunkCap = 16

// chunkArena recycles chunk storage addresses.
type chunkArena struct {
	base uint64
	n    uint64
	next uint64
	free []*chunk
}

func newChunkArena(as *graph.AddrSpace, chunks int) *chunkArena {
	return &chunkArena{base: as.Alloc(uint64(chunks) * chunkCap * 16), n: uint64(chunks)}
}

func (a *chunkArena) get() *chunk {
	if n := len(a.free); n > 0 {
		c := a.free[n-1]
		a.free = a.free[:n-1]
		c.tasks = c.tasks[:0]
		return c
	}
	c := &chunk{addr: a.base + (a.next%a.n)*chunkCap*16, tasks: make([]Task, 0, chunkCap)}
	a.next++
	return c
}

func (a *chunkArena) put(c *chunk) {
	a.free = append(a.free, c)
}

// slotAddr returns the simulated address of slot i in the chunk.
func (c *chunk) slotAddr(i int) uint64 { return c.addr + uint64(i)*16 }
