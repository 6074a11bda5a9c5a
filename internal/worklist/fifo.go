package worklist

import "minnow/internal/graph"

// ChunkedQueue is the Galois dChunked{FIFO,LIFO} family: each thread owns
// a push chunk and a pop chunk touched without synchronization; full/empty
// chunks move through a shared global list guarded by a lock. LIFO mode
// (Carbon's policy, §3.1) pops the most recently pushed chunk and fills
// pop chunks from the same end.
type ChunkedQueue struct {
	lifo    bool
	threads int

	push []*chunk // per-thread chunk being filled
	pop  []*chunk // per-thread chunk being drained

	global Deque[*chunk]
	glock  lock
	ghead  uint64 // simulated address of the global list head

	arena  *chunkArena
	descs  *descArena
	size   int
	pushed int64
	popped int64
}

// NewFIFO builds a chunked FIFO for the given thread count.
func NewFIFO(as *graph.AddrSpace, threads int) *ChunkedQueue {
	return newChunked(as, threads, false)
}

// NewLIFO builds a chunked LIFO (the Carbon-like policy).
func NewLIFO(as *graph.AddrSpace, threads int) *ChunkedQueue {
	return newChunked(as, threads, true)
}

func newChunked(as *graph.AddrSpace, threads int, lifo bool) *ChunkedQueue {
	return &ChunkedQueue{
		lifo:    lifo,
		threads: threads,
		push:    make([]*chunk, threads),
		pop:     make([]*chunk, threads),
		glock:   newLock(as),
		ghead:   as.Alloc(64),
		arena:   newChunkArena(as, 4096),
		descs:   newDescArena(as, 1<<16),
	}
}

// Name implements Worklist.
func (q *ChunkedQueue) Name() string {
	if q.lifo {
		return "lifo"
	}
	return "fifo"
}

// Len implements Worklist.
func (q *ChunkedQueue) Len() int { return q.size }

// Pushed implements Conserved.
func (q *ChunkedQueue) Pushed() int64 { return q.pushed }

// Popped implements Conserved.
func (q *ChunkedQueue) Popped() int64 { return q.popped }

// Push implements Worklist.
func (q *ChunkedQueue) Push(ctx *Ctx, t Task) {
	tid := ctx.Core.ID
	t.Desc = q.descs.alloc(ctx.Core.ID)
	c := q.push[tid]
	if c == nil {
		c = q.arena.get()
		q.push[tid] = c
	}
	// Local fast path: write the descriptor and the chunk slot.
	ctx.TR.Compute(6)
	ctx.TR.Store(t.Desc)
	ctx.TR.Store(c.slotAddr(c.tasks.Len()))
	c.tasks.PushBack(t)
	q.size++
	q.pushed++
	if c.tasks.Len() == chunkCap {
		// Publish the full chunk on the shared list.
		q.glock.acquire(ctx)
		ctx.TR.Compute(4)
		ctx.TR.Load(q.ghead, false, false)
		ctx.TR.Store(q.ghead)
		q.glock.release(ctx)
		q.global.PushBack(c)
		q.push[tid] = nil
	}
	ctx.flush()
}

// Pop implements Worklist.
func (q *ChunkedQueue) Pop(ctx *Ctx) (Task, bool) {
	tid := ctx.Core.ID
	c := q.pop[tid]
	if c == nil || c.tasks.Len() == 0 {
		if c != nil {
			q.arena.put(c)
			q.pop[tid] = nil
		}
		if !q.refill(ctx, tid) {
			return Task{}, false
		}
		c = q.pop[tid]
	}
	var t Task
	if q.lifo {
		t = c.tasks.PopBack()
	} else {
		t = c.tasks.PopFront()
	}
	ctx.TR.Compute(6)
	ctx.TR.Load(c.slotAddr(c.tasks.Len()), false, false)
	ctx.TR.Load(t.Desc, false, false)
	ctx.flush()
	q.size--
	q.popped++
	return t, true
}

// refill moves a chunk from the global list (or steals the thread's own
// partially-filled push chunk) into the pop slot.
func (q *ChunkedQueue) refill(ctx *Ctx, tid int) bool {
	if q.global.Len() > 0 {
		q.glock.acquire(ctx)
		ctx.TR.Compute(4)
		ctx.TR.Load(q.ghead, false, false)
		ctx.TR.Store(q.ghead)
		q.glock.release(ctx)
		if q.lifo {
			q.pop[tid] = q.global.PopBack()
		} else {
			q.pop[tid] = q.global.PopFront()
		}
		return true
	}
	// Fall back to the thread's own push chunk.
	if c := q.push[tid]; c != nil && c.tasks.Len() > 0 {
		q.pop[tid] = c
		q.push[tid] = nil
		ctx.TR.Compute(4)
		ctx.flush()
		return true
	}
	// Steal another thread's push chunk (requires the lock).
	for o := 0; o < q.threads; o++ {
		if c := q.push[o]; o != tid && c != nil && c.tasks.Len() > 0 {
			q.glock.acquire(ctx)
			ctx.TR.Load(q.ghead, false, false)
			ctx.TR.Compute(8)
			q.glock.release(ctx)
			q.pop[tid] = c
			q.push[o] = nil
			return true
		}
	}
	// Checked the global head and found nothing.
	ctx.TR.Load(q.ghead, false, false)
	ctx.flush()
	return false
}
