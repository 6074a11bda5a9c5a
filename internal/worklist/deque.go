package worklist

// Deque is a double-ended queue on a ring buffer: the task storage of the
// scheduling fabric — OBIM's and ChunkedQueue's chunks, the bucket queues
// behind Buckets, and the Minnow engines' local queues and prefetch-stream
// lists. Pops from either end keep the storage, and the ring grows only
// when a push finds it full, as append grows a slice (doubling while
// small, then by a quarter), so its capacity stays under twice its peak
// occupancy and a deque whose occupancy holds steady never reallocates.
// Storage is host memory only: the simulated addresses a worklist
// charges come from its own arenas.
//
// The zero value is empty and ready to use.
type Deque[T any] struct {
	buf  []T // ring storage
	head int // index in buf of the front element
	n    int // queued elements
}

// Len returns the number of queued elements.
func (d *Deque[T]) Len() int { return d.n }

// wrap maps a position in [0, 2*len(buf)) to its index in buf.
func (d *Deque[T]) wrap(i int) int {
	if i >= len(d.buf) {
		i -= len(d.buf)
	}
	return i
}

// At returns the i-th element from the front, 0 <= i < Len().
func (d *Deque[T]) At(i int) T {
	if i < 0 || i >= d.n {
		panic("worklist: Deque index out of range")
	}
	return d.buf[d.wrap(d.head+i)]
}

// PushBack adds v at the back.
func (d *Deque[T]) PushBack(v T) {
	if d.n == len(d.buf) {
		d.grow()
	}
	d.buf[d.wrap(d.head+d.n)] = v
	d.n++
}

// PopFront removes and returns the front element; the deque must not be
// empty.
func (d *Deque[T]) PopFront() T {
	if d.n == 0 {
		panic("worklist: PopFront on an empty Deque")
	}
	var zero T
	v := d.buf[d.head]
	d.buf[d.head] = zero // drop the reference for the GC
	d.head = d.wrap(d.head + 1)
	d.n--
	return v
}

// PopBack removes and returns the back element; the deque must not be
// empty.
func (d *Deque[T]) PopBack() T {
	if d.n == 0 {
		panic("worklist: PopBack on an empty Deque")
	}
	var zero T
	i := d.wrap(d.head + d.n - 1)
	v := d.buf[i]
	d.buf[i] = zero
	d.n--
	return v
}

// AppendTo appends the queued elements, front to back, to dst.
func (d *Deque[T]) AppendTo(dst []T) []T {
	if end := d.head + d.n; end <= len(d.buf) {
		return append(dst, d.buf[d.head:end]...)
	}
	dst = append(dst, d.buf[d.head:]...)
	return append(dst, d.buf[:d.head+d.n-len(d.buf)]...)
}

// Reset empties the deque, keeping its storage.
func (d *Deque[T]) Reset() {
	clear(d.buf)
	d.head, d.n = 0, 0
}

// grow enlarges a full ring as append would a full slice — doubling it
// below 256 elements, adding a quarter above — and unrolls the queued
// elements to the front of the new storage. The gentler step matters for
// the global worklist, whose largest buckets hold tens of thousands of
// tasks.
func (d *Deque[T]) grow() {
	n := len(d.buf)
	c := max(1, 2*n)
	if n >= 256 {
		c = n + n/4
	}
	buf := make([]T, c)
	k := copy(buf, d.buf[d.head:])
	copy(buf[k:], d.buf[:d.head])
	d.buf, d.head = buf, 0
}
