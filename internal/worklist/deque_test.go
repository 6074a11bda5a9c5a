package worklist

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"minnow/internal/uops"
)

// TestTaskAndUOpSizes pins the packed sizes of the two values the
// simulator holds most of: every queued task in every worklist, chunk
// and engine queue is a Task, and every emitted micro-op in a worker's
// trace is a UOp. A field added or moved across an alignment boundary
// grows each of them, and the host footprint with it.
func TestTaskAndUOpSizes(t *testing.T) {
	if got := unsafe.Sizeof(Task{}); got != 40 {
		t.Errorf("Task is %d bytes, want 40", got)
	}
	if got := unsafe.Sizeof(uops.UOp{}); got != 24 {
		t.Errorf("uops.UOp is %d bytes, want 24", got)
	}
}

// dequeHarness applies the same operations to a Deque and to a plain
// slice and checks after each one that their contents agree and that the
// deque's storage stays under twice the peak occupancy.
type dequeHarness struct {
	t    *testing.T
	d    Deque[int]
	ref  []int
	peak int
	next int
}

func (h *dequeHarness) pushBack() {
	h.d.PushBack(h.next)
	h.ref = append(h.ref, h.next)
	h.next++
	h.peak = max(h.peak, len(h.ref))
	h.check()
}

func (h *dequeHarness) popFront() {
	if len(h.ref) == 0 {
		return
	}
	if got, want := h.d.PopFront(), h.ref[0]; got != want {
		h.t.Fatalf("PopFront = %d, want %d", got, want)
	}
	h.ref = h.ref[1:]
	h.check()
}

func (h *dequeHarness) popBack() {
	if len(h.ref) == 0 {
		return
	}
	if got, want := h.d.PopBack(), h.ref[len(h.ref)-1]; got != want {
		h.t.Fatalf("PopBack = %d, want %d", got, want)
	}
	h.ref = h.ref[:len(h.ref)-1]
	h.check()
}

func (h *dequeHarness) reset() {
	h.d.Reset()
	h.ref = nil
	h.check()
}

func (h *dequeHarness) check() {
	h.t.Helper()
	if got := h.d.AppendTo(nil); !slices.Equal(got, h.ref) {
		h.t.Fatalf("deque holds %v, want %v", got, h.ref)
	}
	if h.d.Len() != len(h.ref) {
		h.t.Fatalf("Len = %d, want %d", h.d.Len(), len(h.ref))
	}
	for i, v := range h.ref {
		if got := h.d.At(i); got != v {
			h.t.Fatalf("At(%d) = %d, want %d", i, got, v)
		}
	}
	if c := len(h.d.buf); c > 2*h.peak {
		h.t.Fatalf("capacity %d exceeds twice the peak occupancy %d", c, h.peak)
	}
}

// FuzzDeque interprets a byte string as a push/pop-front/pop-back/reset
// program against a Deque and a plain-slice reference, checking the
// contents and the capacity bound after every operation. Runs of pushes
// are weighted so the ring wraps and grows while holding elements.
func FuzzDeque(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0x40, 0, 0, 0x80, 0, 0x40, 0x40})
	f.Add([]byte("push push pop reset push"))
	f.Add([]byte{0x3f, 0x41, 0x3f, 0x81, 0x3f, 0xc0, 0x3f})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			prog = prog[:4096]
		}
		h := &dequeHarness{t: t}
		for _, op := range prog {
			n := 1 + int(op&0x3f)%8
			switch op >> 6 {
			case 0:
				for ; n > 0; n-- {
					h.pushBack()
				}
			case 1:
				for ; n > 0; n-- {
					h.popFront()
				}
			case 2:
				for ; n > 0; n-- {
					h.popBack()
				}
			default:
				if op&0x3f == 0x3f {
					h.reset()
				} else {
					h.pushBack()
					h.popFront()
				}
			}
		}
	})
}

// TestOBIMPushPopAllocs checks that OBIM push/pop traffic allocates
// nothing once its chunks, bucket queues and descriptor rings have grown
// to the working set: emptied chunks go back to the arena with their
// storage, and every queue keeps what it grew to.
func TestOBIMPushPopAllocs(t *testing.T) {
	for _, buckets := range []int64{8, 4096} {
		const threads = 4
		as, _, ctxs := testEnv(threads)
		wl := NewOBIM(as, threads, 1, 0)
		i := 0
		step := func() {
			wl.Push(ctxs[i%threads], task(int64(i*7)%buckets, int32(i)))
			if _, ok := wl.Pop(ctxs[(i+1)%threads]); !ok {
				t.Fatal("pop found no work")
			}
			i++
		}
		for ; i < 8*chunkCap*threads; i++ {
			wl.Push(ctxs[i%threads], task(int64(i*7)%buckets, int32(i)))
		}
		for n := 0; n < 20000; n++ {
			step()
		}
		if allocs := testing.AllocsPerRun(2000, step); allocs != 0 {
			t.Errorf("%d buckets: push+pop allocates %.2f times per pair after warm-up", buckets, allocs)
		}
	}
}

// TestOBIMOneTaskChunkBytes seeds tasks whose buckets alternate, so that
// every push retires the pushing thread's chunk and opens a fresh one
// holding a single task (the pattern a CC seed with priority = node id
// produces). Chunks grow with what they hold, so the seed allocates far
// less than a chunkCap-slot array per chunk.
func TestOBIMOneTaskChunkBytes(t *testing.T) {
	const n = 4096
	as, _, ctxs := testEnv(1)
	wl := NewOBIM(as, 1, 1, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		wl.Push(ctxs[0], task(int64(i%2), int32(i)))
	}
	runtime.ReadMemStats(&after)
	if wl.GlobalPushes != n {
		t.Fatalf("%d of %d pushes opened a chunk, want all", wl.GlobalPushes, n)
	}
	bytes := after.TotalAlloc - before.TotalAlloc
	limit := uint64(n * chunkCap * unsafe.Sizeof(Task{}) / 4)
	if bytes > limit {
		t.Fatalf("seeding %d one-task chunks allocated %d bytes (%d per chunk), want at most %d",
			n, bytes, bytes/n, limit)
	}
	t.Logf("seeding %d one-task chunks allocated %d bytes (%d per chunk)", n, bytes, bytes/n)
	for i := 0; i < n; i++ {
		if _, ok := wl.Pop(ctxs[0]); !ok {
			t.Fatalf("pop %d found no work", i)
		}
	}
}
