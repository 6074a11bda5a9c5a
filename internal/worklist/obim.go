package worklist

import (
	"fmt"

	"minnow/internal/graph"
)

// OBIM is the Ordered-By-Integer-Metric partial-priority worklist (§2.1):
// priorities are discretized into buckets (bucket = priority >>
// lgInterval); buckets are processed in ascending order but the work
// inside a bucket is unordered. Each thread keeps a private push/pop chunk
// for its current bucket; everything else lives in per-socket bucket maps
// guarded by locks (the §6.2.1 topology optimization shards the map over
// `sockets` groups — Galois' original single-socket layout is sockets=1).
type OBIM struct {
	lgInterval uint
	threads    int
	sockets    int

	cur     []int64 // per-thread current push bucket
	popBkt  []int64 // per-thread current pop-chunk bucket
	push    []*chunk
	pop     []*chunk
	lvlAddr uint64  // shared "current level" line pops consult
	popCnt  []int64 // per-thread pop counter (rebind rate limiting)

	sock []*obimSocket

	arena *chunkArena
	descs *descArena
	size  int

	// GlobalPushes counts pushes that left the fast path, a measure of
	// how often OBIM's "changing buckets is rare" assumption fails.
	GlobalPushes int64
	TotalPushes  int64
	// Rebinds counts pop-chunk returns triggered by the shared level line.
	Rebinds int64

	popped int64
}

type obimSocket struct {
	lock    lock
	mapAddr uint64
	buckets Buckets[*chunk]
}

// NewOBIM builds an OBIM worklist. lgInterval is the log2 bucket interval
// (0 = one priority per bucket); sockets shards the global structure.
func NewOBIM(as *graph.AddrSpace, threads, sockets int, lgInterval uint) *OBIM {
	if sockets < 1 {
		sockets = 1
	}
	if sockets > threads {
		sockets = threads
	}
	o := &OBIM{
		lgInterval: lgInterval,
		threads:    threads,
		sockets:    sockets,
		cur:        make([]int64, threads),
		popBkt:     make([]int64, threads),
		popCnt:     make([]int64, threads),
		push:       make([]*chunk, threads),
		pop:        make([]*chunk, threads),
		lvlAddr:    as.Alloc(64),
		arena:      newChunkArena(as, 8192),
		descs:      newDescArena(as, 1<<16),
	}
	for i := range o.cur {
		o.cur[i] = int64(1) << 62 // "no bucket yet"
		o.popBkt[i] = int64(1) << 62
	}
	for s := 0; s < sockets; s++ {
		o.sock = append(o.sock, &obimSocket{
			lock:    newLock(as),
			mapAddr: as.Alloc(4096),
		})
	}
	return o
}

// Name implements Worklist.
func (o *OBIM) Name() string { return fmt.Sprintf("obim-lg%d-s%d", o.lgInterval, o.sockets) }

// Len implements Worklist.
func (o *OBIM) Len() int { return o.size }

// Pushed implements Conserved.
func (o *OBIM) Pushed() int64 { return o.TotalPushes }

// Popped implements Conserved.
func (o *OBIM) Popped() int64 { return o.popped }

func (o *OBIM) socketOf(tid int) *obimSocket {
	return o.sock[tid*o.sockets/o.threads]
}

func (o *OBIM) bucketOf(priority int64) int64 {
	// Arithmetic shift keeps negative priorities ordered.
	return priority >> o.lgInterval
}

// Push implements Worklist.
func (o *OBIM) Push(ctx *Ctx, t Task) {
	tid := ctx.Core.ID
	t.Desc = o.descs.alloc(ctx.Core.ID)
	b := o.bucketOf(t.Priority)
	o.TotalPushes++
	o.size++

	ctx.TR.Compute(8) // priority→bucket math, descriptor setup
	ctx.TR.Store(t.Desc)

	if c := o.push[tid]; c != nil && b == o.cur[tid] && c.tasks.Len() < chunkCap {
		// Fast path: same bucket, room in the private chunk.
		ctx.TR.Store(c.slotAddr(c.tasks.Len()))
		c.tasks.PushBack(t)
		ctx.flush()
		if c.tasks.Len() == chunkCap {
			// Publish the full chunk so other threads can see it.
			s := o.socketOf(tid)
			s.lock.acquire(ctx)
			ctx.TR.Load(s.mapAddr, false, false)
			ctx.TR.Store(s.mapAddr)
			s.lock.release(ctx)
			s.buckets.Append(b, c)
			o.push[tid] = nil
		}
		return
	}
	o.GlobalPushes++
	o.globalPush(ctx, tid, b, t)
}

// globalPush publishes the thread's current chunk if it is full or holds
// a different bucket, then appends the task to a fresh chunk for bucket b.
func (o *OBIM) globalPush(ctx *Ctx, tid int, b int64, t Task) {
	s := o.socketOf(tid)
	// Retire the old private chunk to its bucket first.
	if c := o.push[tid]; c != nil && c.tasks.Len() > 0 && (o.cur[tid] != b || c.tasks.Len() >= chunkCap) {
		s.lock.acquire(ctx)
		ctx.TR.Load(s.mapAddr, false, false)
		ctx.TR.Compute(10)
		ctx.TR.Store(s.mapAddr)
		s.lock.release(ctx)
		s.buckets.Append(o.cur[tid], c)
		o.push[tid] = nil
	}
	if o.push[tid] == nil {
		o.push[tid] = o.arena.get()
		o.cur[tid] = b
		// New chunks for a new bucket: map lookup/insert under the lock.
		s.lock.acquire(ctx)
		ctx.TR.Load(s.mapAddr, false, false)
		ctx.TR.Load(s.mapAddr+128, false, true) // map node chase
		ctx.TR.Compute(12)
		ctx.TR.Store(s.mapAddr)
		s.lock.release(ctx)
	}
	c := o.push[tid]
	ctx.TR.Store(c.slotAddr(c.tasks.Len()))
	ctx.flush()
	c.tasks.PushBack(t)
	if c.tasks.Len() == chunkCap {
		s.lock.acquire(ctx)
		ctx.TR.Load(s.mapAddr, false, false)
		ctx.TR.Store(s.mapAddr)
		s.lock.release(ctx)
		s.buckets.Append(b, c)
		o.push[tid] = nil
	}
}

// globalMin returns the lowest bucket present in any socket map
// (bookkeeping; the simulated cost is the shared level-line load charged
// at each pop). Work hidden in other threads' private push chunks is
// invisible, as in the real implementation.
func (o *OBIM) globalMin() int64 {
	min := int64(1) << 62
	for _, s := range o.sock {
		if b, ok := s.buckets.Min(); ok && b < min {
			min = b
		}
	}
	return min
}

// Pop implements Worklist.
func (o *OBIM) Pop(ctx *Ctx) (Task, bool) {
	tid := ctx.Core.ID
	if c := o.pop[tid]; c != nil && c.tasks.Len() > 0 {
		// OBIM threads watch a shared level line: when strictly better
		// work appears anywhere, the stale pop chunk goes back to its
		// bucket and the thread rebinds to the lowest level. The check
		// is rate-limited (every 4th pop) — per-pop rebinding causes
		// chunk-bounce storms under delta-stepping's bucket churn — so
		// both the level-line load and the min-bucket bookkeeping are
		// only performed on the pops that may actually rebind.
		o.popCnt[tid]++
		rebind := false
		if o.popCnt[tid]%4 == 0 {
			ctx.TR.Load(o.lvlAddr, false, false)
			rebind = o.globalMin() < o.popBkt[tid]
		}
		if rebind {
			o.Rebinds++
			s := o.socketOf(tid)
			s.lock.acquire(ctx)
			ctx.TR.Compute(8)
			ctx.TR.Store(s.mapAddr)
			s.lock.release(ctx)
			s.buckets.Append(o.popBkt[tid], c)
			o.pop[tid] = nil
		} else {
			t := c.tasks.PopFront()
			ctx.TR.Compute(6)
			ctx.TR.Load(c.slotAddr(c.tasks.Len()), false, false)
			ctx.TR.Load(t.Desc, false, false)
			ctx.flush()
			o.size--
			o.popped++
			return t, true
		}
	}
	if c := o.pop[tid]; c != nil && c.tasks.Len() == 0 {
		o.arena.put(c)
		o.pop[tid] = nil
	}
	if !o.refill(ctx, tid) {
		return Task{}, false
	}
	return o.Pop(ctx)
}

// refill takes a chunk from the socket holding the lowest non-empty
// bucket anywhere (remote probes cost a map read), falling back to
// draining private push chunks when every socket map is empty.
func (o *OBIM) refill(ctx *Ctx, tid int) bool {
	own := o.socketOf(tid)
	// Pick the socket with the lowest bucket (bookkeeping mirrors the
	// shared level line; remote probes are charged below).
	var best *obimSocket
	var bestB int64
	for _, s := range o.sock {
		b, ok := s.buckets.Min()
		if !ok {
			continue
		}
		if best == nil || b < bestB || (b == bestB && s == own && best != own) {
			best, bestB = s, b
		}
	}
	// The thread's own private push chunk is visible to itself: prefer
	// it when it holds strictly better work than any published bucket.
	if c := o.push[tid]; c != nil && c.tasks.Len() > 0 && (best == nil || o.cur[tid] < bestB) {
		s := o.socketOf(tid)
		s.lock.acquire(ctx)
		ctx.TR.Compute(8)
		s.lock.release(ctx)
		o.pop[tid] = c
		o.popBkt[tid] = o.cur[tid]
		o.push[tid] = nil
		return true
	}
	if best != nil {
		if best != own {
			ctx.TR.Load(best.mapAddr, false, false) // remote map probe
			ctx.flush()
		}
		s := best
		s.lock.acquire(ctx)
		// Scan the ordered map for the lowest bucket.
		ctx.TR.Load(s.mapAddr, false, false)
		ctx.TR.Load(s.mapAddr+192, false, true)
		ctx.TR.Compute(16)
		c := s.buckets.PopBack(bestB)
		ctx.TR.Store(s.mapAddr)
		s.lock.release(ctx)
		o.pop[tid] = c
		o.popBkt[tid] = o.minBucketOf(c, bestB)
		return true
	}
	// Nothing in any socket map: drain private push chunks (own first).
	for probe := 0; probe < o.threads; probe++ {
		ot := (tid + probe) % o.threads
		if c := o.push[ot]; c != nil && c.tasks.Len() > 0 {
			s := o.socketOf(ot)
			s.lock.acquire(ctx)
			ctx.TR.Compute(8)
			s.lock.release(ctx)
			o.pop[tid] = c
			o.popBkt[tid] = o.cur[ot]
			o.push[ot] = nil
			return true
		}
	}
	return false
}

// minBucketOf returns the bucket of a chunk taken from bucket b. Published
// chunks are never empty; an empty one would report b.
func (o *OBIM) minBucketOf(c *chunk, b int64) int64 {
	if c.tasks.Len() > 0 {
		return o.bucketOf(c.tasks.At(0).Priority)
	}
	return b
}
