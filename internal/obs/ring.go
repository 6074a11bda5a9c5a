package obs

// Ring is a fixed-capacity buffer keeping the most recent values pushed
// into it. It backs both the engine event tail (EventTail) and the
// service's crash flight recorder. A Ring is not safe for concurrent
// use; owners shared across goroutines guard it themselves.
type Ring[T any] struct {
	buf  []T
	seen int64
}

// NewRing returns a ring keeping the last n values (n <= 0 keeps one).
func NewRing[T any](n int) *Ring[T] {
	if n <= 0 {
		n = 1
	}
	return &Ring[T]{buf: make([]T, 0, n)}
}

// Push appends v, displacing the oldest value once the ring is full.
func (r *Ring[T]) Push(v T) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
	} else {
		r.buf[r.seen%int64(cap(r.buf))] = v
	}
	r.seen++
}

// Seen returns how many values were ever pushed, displaced ones included.
func (r *Ring[T]) Seen() int64 { return r.seen }

// Items returns the retained values oldest-first.
func (r *Ring[T]) Items() []T {
	out := make([]T, 0, len(r.buf))
	if len(r.buf) < cap(r.buf) {
		return append(out, r.buf...)
	}
	head := int(r.seen % int64(cap(r.buf))) // oldest slot
	out = append(out, r.buf[head:]...)
	return append(out, r.buf[:head]...)
}
