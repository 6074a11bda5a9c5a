package worklist

// Buckets is an ordered map from bucket number to a queue of T: the
// bookkeeping behind OBIM's per-socket bucket maps and the Minnow
// engines' global worklist shards. Each bucket's values sit in a Deque,
// so taking them from either end keeps the bucket's storage. Min is exact
// and amortized O(log n): bucket numbers sit in a binary min-heap, and a
// bucket emptied by a take keeps its heap entry (and its slot) until it
// surfaces at the top, where Min retires it. A Go map would do here only
// if its iteration were cheap, but finding the minimum of a map walks
// every slot it ever grew to — maps never shrink — so a rescan after
// draining the lowest bucket costs the map's high-water capacity, not its
// current length.
//
// The zero value is empty and ready to use.
type Buckets[T any] struct {
	index map[int64]int32 // bucket number -> slot in lists
	lists []Deque[T]      // per-slot queue; empty for a drained bucket
	free  []int32         // retired slots, reused with their queue's storage
	heap  []heapEntry     // min-heap of every indexed bucket
	live  int             // buckets whose queue is non-empty
}

// heapEntry is one indexed bucket: its number and its slot.
type heapEntry struct {
	b    int64
	slot int32
}

// Len returns the number of non-empty buckets.
func (bk *Buckets[T]) Len() int { return bk.live }

// Size returns the number of values bucket b holds.
func (bk *Buckets[T]) Size(b int64) int {
	if i, ok := bk.index[b]; ok {
		return bk.lists[i].Len()
	}
	return 0
}

// Append adds v to the back of bucket b.
func (bk *Buckets[T]) Append(b int64, v T) {
	i := bk.slot(b)
	q := &bk.lists[i]
	if q.Len() == 0 {
		bk.live++
	}
	q.PushBack(v)
}

// PopBack removes and returns the back value of bucket b, which must not
// be empty.
func (bk *Buckets[T]) PopBack(b int64) T {
	i, ok := bk.index[b]
	if !ok {
		panic("worklist: PopBack on an empty bucket")
	}
	q := &bk.lists[i]
	v := q.PopBack()
	if q.Len() == 0 {
		bk.live--
	}
	return v
}

// TakeFront moves up to n values from the front of bucket b to the end of
// dst, in order, and returns dst. Taking every value drains the bucket:
// it no longer counts toward Len or Min.
func (bk *Buckets[T]) TakeFront(b int64, n int, dst []T) []T {
	i, ok := bk.index[b]
	if !ok {
		return dst
	}
	q := &bk.lists[i]
	if q.Len() == 0 {
		return dst
	}
	for ; n > 0 && q.Len() > 0; n-- {
		dst = append(dst, q.PopFront())
	}
	if q.Len() == 0 {
		bk.live--
	}
	return dst
}

// Min returns the lowest non-empty bucket number; ok is false when every
// bucket is empty.
func (bk *Buckets[T]) Min() (b int64, ok bool) {
	for len(bk.heap) > 0 {
		top := bk.heap[0]
		i := top.slot
		if bk.lists[i].Len() > 0 {
			return top.b, true
		}
		// Drained: retire the bucket; its slot keeps the queue's storage.
		bk.popHeap()
		delete(bk.index, top.b)
		bk.free = append(bk.free, i)
	}
	return 0, false
}

// slot returns b's slot, indexing b (and pushing it on the heap) when it
// is not indexed yet.
func (bk *Buckets[T]) slot(b int64) int32 {
	if i, ok := bk.index[b]; ok {
		return i
	}
	if bk.index == nil {
		bk.index = make(map[int64]int32)
	}
	var i int32
	if n := len(bk.free); n > 0 {
		i = bk.free[n-1]
		bk.free = bk.free[:n-1]
	} else {
		i = int32(len(bk.lists))
		bk.lists = append(bk.lists, Deque[T]{})
	}
	bk.index[b] = i
	bk.pushHeap(heapEntry{b, i})
	return i
}

func (bk *Buckets[T]) pushHeap(e heapEntry) {
	h := append(bk.heap, e)
	j := len(h) - 1
	for j > 0 {
		p := (j - 1) / 2
		if h[p].b <= e.b {
			break
		}
		h[j] = h[p]
		j = p
	}
	h[j] = e
	bk.heap = h
}

func (bk *Buckets[T]) popHeap() {
	h := bk.heap
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	j := 0
	for {
		c := 2*j + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].b < h[c].b {
			c++
		}
		if last.b <= h[c].b {
			break
		}
		h[j] = h[c]
		j = c
	}
	if n > 0 {
		h[j] = last
	}
	bk.heap = h
}
