package core

import (
	"minnow/internal/graph"
	"minnow/internal/mem"
	"minnow/internal/sim"
	"minnow/internal/worklist"
)

// GlobalWL is the software global priority worklist the Minnow engines
// run: a simplified OBIM (Fig. 13) — a concurrent ordered map from bucket
// number to unordered task lists — living in simulated memory and accessed
// by engines through their cores' L2s. Like the §6.2.1-optimized Galois
// OBIM it is sharded into socket groups to bound lock contention.
//
// Logical contents are real Go data; every operation performs the
// engine-side memory accesses (lock RMW, map-node loads, task-slot
// loads/stores) a software implementation would, so spill/fill costs and
// inter-engine contention come out of the memory model.
type GlobalWL struct {
	shards  []*gwlShard
	sockets int
	cores   int
	size    int
}

type gwlShard struct {
	lockAddr uint64
	lockFree sim.Time
	mapAddr  uint64
	buckets  worklist.Buckets[worklist.Task]
	slots    map[int64]uint64 // bucket -> simulated storage base
	as       *graph.AddrSpace
}

// NewGlobalWL builds the engines' shared worklist with the given shard
// (socket) count.
func NewGlobalWL(as *graph.AddrSpace, cores, sockets int) *GlobalWL {
	if sockets < 1 {
		sockets = 1
	}
	if sockets > cores {
		sockets = cores
	}
	g := &GlobalWL{sockets: sockets, cores: cores}
	for s := 0; s < sockets; s++ {
		g.shards = append(g.shards, &gwlShard{
			lockAddr: as.Alloc(64),
			mapAddr:  as.Alloc(4096),
			slots:    make(map[int64]uint64),
			as:       as,
		})
	}
	return g
}

// Len returns the queued task count (bookkeeping).
func (g *GlobalWL) Len() int { return g.size }

// DrainAll removes and returns every queued task (engine-offline rescue).
// Tasks come out in deterministic order — shards in index order, buckets
// ascending within a shard — with no memory traffic charged: the rescue
// path models a software recovery routine whose cost the fallback
// worklist's own operations dominate.
func (g *GlobalWL) DrainAll() []worklist.Task {
	var out []worklist.Task
	for _, s := range g.shards {
		for b, ok := s.buckets.Min(); ok; b, ok = s.buckets.Min() {
			out = append(out, s.buckets.Get(b)...)
			s.buckets.Set(b, nil)
		}
	}
	g.size = 0
	return out
}

// MinBucket returns the lowest bucket number queued anywhere (noBucket
// when empty). Zero-cost bookkeeping the engine's refill heuristic reads;
// the real map walk is charged when Fill runs.
func (g *GlobalWL) MinBucket() int64 {
	min := noBucket
	for _, s := range g.shards {
		if b, ok := s.buckets.Min(); ok && b < min {
			min = b
		}
	}
	return min
}

func (g *GlobalWL) shardOf(core int) *gwlShard {
	return g.shards[core*g.sockets/g.cores]
}

// LockFree returns when the engine's home-shard lock next becomes free.
// The engine back-end uses it to run prefetch threadlets instead of
// spinning a hardware context on a busy lock.
func (g *GlobalWL) LockFree(core int) sim.Time {
	return g.shardOf(core).lockFree
}

// slotAddr returns the simulated address of task index i in bucket b.
func (s *gwlShard) slotAddr(b int64, i int) uint64 {
	base, ok := s.slots[b]
	if !ok {
		base = s.as.Alloc(1 << 14)
		s.slots[b] = base
	}
	return base + uint64(i%1024)*16
}

// acquire takes the shard lock with an engine RMW, spinning on the
// reservation left by the previous holder.
func (s *gwlShard) acquire(e *Engine, t sim.Time) sim.Time {
	if e.clock < t {
		e.clock = t
	}
	if s.lockFree > e.clock {
		e.clock = s.lockFree
	}
	res := e.load(s.lockAddr, mem.EngineAtomic)
	if res.Done > e.clock {
		e.clock = res.Done
	}
	s.lockFree = e.clock + 40 // pessimistic hold reservation
	return e.clock
}

func (s *gwlShard) release(e *Engine) {
	e.load(s.lockAddr, mem.EngineStore)
	s.lockFree = e.clock
}

// Spill pushes one task into the shard owned by the engine's socket,
// returning the engine-time at which the threadlet finishes.
func (g *GlobalWL) Spill(e *Engine, t worklist.Task, at sim.Time) sim.Time {
	return g.SpillBatch(e, []worklist.Task{t}, at)
}

// SpillBatch pushes a group of tasks under one lock acquisition — the
// §5.2 grouping optimization ("several memory allocation and deallocation
// tasks may be grouped together"). One map walk is charged per batch.
func (g *GlobalWL) SpillBatch(e *Engine, tasks []worklist.Task, at sim.Time) sim.Time {
	if len(tasks) == 0 {
		return at
	}
	s := g.shardOf(e.CoreID)
	// Write the task slots first — slots are only published by the head
	// update, so they need no lock.
	for _, t := range tasks {
		b := t.Priority >> e.cfg.LgInterval
		e.load(s.slotAddr(b, len(s.buckets.Get(b))), mem.EngineStore)
		s.buckets.Append(b, t)
		g.size++
	}
	// Short critical section: map walk + head publish.
	s.acquire(e, at)
	e.load(s.mapAddr, mem.EngineLoad)     // map root
	e.load(s.mapAddr+256, mem.EngineLoad) // map node chase
	e.load(s.mapAddr, mem.EngineStore)    // publish
	s.release(e)
	return e.clock
}

// Fill pops up to want tasks from the lowest bucket available to the
// engine's socket (stealing from other shards when its own is empty),
// returning the tasks and the completion time.
func (g *GlobalWL) Fill(e *Engine, want int, at sim.Time) ([]worklist.Task, sim.Time) {
	if e.clock < at {
		e.clock = at
	}
	own := e.CoreID * g.sockets / g.cores
	for probe := 0; probe < g.sockets; probe++ {
		s := g.shards[(own+probe)%g.sockets]
		if probe > 0 {
			e.load(s.mapAddr, mem.EngineLoad) // remote occupancy check
		}
		fromB, ok := s.buckets.Min()
		if !ok {
			continue
		}
		// Short critical section: map walk + claim the chunk by moving
		// the head pointer; the task slots stream in afterwards without
		// the lock.
		s.acquire(e, e.clock)
		e.load(s.mapAddr, mem.EngineLoad)
		e.load(s.mapAddr+256, mem.EngineLoad)
		list := s.buckets.Get(fromB)
		n := want
		// Fair-share cap: grabbing a huge chunk while little work remains
		// strands the tail on one engine while the other cores starve.
		if fair := g.size/g.cores + 1; n > fair {
			n = fair
		}
		if n > len(list) {
			n = len(list)
		}
		out := make([]worklist.Task, n)
		copy(out, list[:n])
		s.buckets.Set(fromB, list[n:])
		e.load(s.mapAddr, mem.EngineStore)
		s.release(e)
		// Stream the claimed task slots in (4 tasks per 64B line).
		for i := 0; i < n; i += 4 {
			e.load(s.slotAddr(fromB, i), mem.EngineLoad)
		}
		g.size -= n
		return out, e.clock
	}
	return nil, e.clock
}
