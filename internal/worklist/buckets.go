package worklist

// Buckets is an ordered map from bucket number to a list of T: the
// bookkeeping behind OBIM's per-socket bucket maps and the Minnow
// engines' global worklist shards. Min is exact and amortized O(log n):
// bucket numbers sit in a binary min-heap, and a bucket emptied by Set
// keeps its heap entry (and its slot) until it surfaces at the top, where
// Min retires it. A Go map would do here only if its iteration were
// cheap, but finding the minimum of a map walks every slot it ever grew
// to — maps never shrink — so a rescan after draining the lowest bucket
// costs the map's high-water capacity, not its current length.
//
// The zero value is empty and ready to use.
type Buckets[T any] struct {
	index map[int64]int32 // bucket number -> slot in lists
	lists [][]T           // per-slot list; empty for a drained bucket
	free  []int32         // retired slots, reused with their list capacity
	heap  []heapEntry     // min-heap of every indexed bucket
	live  int             // buckets whose list is non-empty
}

// heapEntry is one indexed bucket: its number and its slot.
type heapEntry struct {
	b    int64
	slot int32
}

// Len returns the number of non-empty buckets.
func (bk *Buckets[T]) Len() int { return bk.live }

// Get returns bucket b's list (nil or empty when b holds nothing). The
// slice aliases the map's storage until the next Append or Set.
func (bk *Buckets[T]) Get(b int64) []T {
	if i, ok := bk.index[b]; ok {
		return bk.lists[i]
	}
	return nil
}

// Append adds v to the end of bucket b's list.
func (bk *Buckets[T]) Append(b int64, v T) {
	i := bk.slot(b)
	if len(bk.lists[i]) == 0 {
		bk.live++
	}
	bk.lists[i] = append(bk.lists[i], v)
}

// Set replaces bucket b's list. An empty list drains the bucket: it no
// longer counts toward Len or Min.
func (bk *Buckets[T]) Set(b int64, list []T) {
	i, ok := bk.index[b]
	if !ok {
		if len(list) == 0 {
			return
		}
		i = bk.slot(b)
	}
	was, now := len(bk.lists[i]) > 0, len(list) > 0
	switch {
	case was && !now:
		bk.live--
	case !was && now:
		bk.live++
	}
	bk.lists[i] = list
}

// Min returns the lowest non-empty bucket number; ok is false when every
// bucket is empty.
func (bk *Buckets[T]) Min() (b int64, ok bool) {
	for len(bk.heap) > 0 {
		top := bk.heap[0]
		i := top.slot
		if len(bk.lists[i]) > 0 {
			return top.b, true
		}
		// Drained: retire the bucket, keeping its list's capacity.
		bk.popHeap()
		delete(bk.index, top.b)
		bk.lists[i] = bk.lists[i][:0]
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
		bk.lists = append(bk.lists, nil)
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
