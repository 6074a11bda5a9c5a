package worklist

import (
	"slices"
	"testing"

	"minnow/internal/rng"
)

// refBuckets is the reference Buckets is checked against: a plain map
// holding only non-empty lists, and a linear scan for the minimum.
type refBuckets map[int64][]int

func (r refBuckets) min() (int64, bool) {
	var m int64
	ok := false
	for b := range r {
		if !ok || b < m {
			m, ok = b, true
		}
	}
	return m, ok
}

func (r refBuckets) set(b int64, list []int) {
	if len(list) == 0 {
		delete(r, b)
		return
	}
	r[b] = slices.Clone(list)
}

// bucketsHarness applies the same operations to a Buckets and to the
// reference and checks after each one that the bucket's contents, Size,
// Len and Min agree.
type bucketsHarness struct {
	t    *testing.T
	bk   Buckets[int]
	ref  refBuckets
	next int
}

func newBucketsHarness(t *testing.T) *bucketsHarness {
	return &bucketsHarness{t: t, ref: refBuckets{}}
}

// items returns bucket b's values, front to back.
func (h *bucketsHarness) items(b int64) []int {
	if i, ok := h.bk.index[b]; ok {
		return h.bk.lists[i].AppendTo(nil)
	}
	return nil
}

func (h *bucketsHarness) append(b int64) {
	h.bk.Append(b, h.next)
	h.ref[b] = append(h.ref[b], h.next)
	h.next++
	h.check(b)
}

// take removes n values from the front (front=true) or back of bucket b,
// the two ways the global worklist and OBIM drain a bucket, and checks
// that the values come out in the reference's order.
func (h *bucketsHarness) take(b int64, n int, front bool) {
	h.t.Helper()
	want := h.ref[b]
	k := min(n, len(want))
	var got []int
	if front {
		got = h.bk.TakeFront(b, n, nil)
		want, h.ref[b] = want[:k], want[k:]
	} else {
		for i := 0; i < k; i++ {
			got = append(got, h.bk.PopBack(b))
		}
		want, h.ref[b] = slices.Clone(want[len(want)-k:]), want[:len(want)-k]
		slices.Reverse(want)
	}
	if !slices.Equal(got, want) {
		h.t.Fatalf("take(%d, %d, front=%v) = %v, want %v", b, n, front, got, want)
	}
	h.ref.set(b, h.ref[b])
	h.check(b)
}

// drainMin empties the lowest bucket, if any.
func (h *bucketsHarness) drainMin() {
	h.t.Helper()
	if b, ok := h.bk.Min(); ok {
		h.take(b, h.bk.Size(b), true)
	}
}

func (h *bucketsHarness) check(b int64) {
	h.t.Helper()
	if got, want := h.items(b), h.ref[b]; !slices.Equal(got, want) {
		h.t.Fatalf("bucket %d holds %v, want %v", b, got, want)
	}
	if got, want := h.bk.Size(b), len(h.ref[b]); got != want {
		h.t.Fatalf("Size(%d) = %d, want %d", b, got, want)
	}
	if got, want := h.bk.Len(), len(h.ref); got != want {
		h.t.Fatalf("Len = %d, want %d", got, want)
	}
	gb, gok := h.bk.Min()
	wb, wok := h.ref.min()
	if gb != wb || gok != wok {
		h.t.Fatalf("Min = %d,%v, want %d,%v", gb, gok, wb, wok)
	}
}

// checkAll compares every bucket the reference or a probe range holds.
func (h *bucketsHarness) checkAll(lo, hi int64) {
	h.t.Helper()
	for b := lo; b <= hi; b++ {
		h.check(b)
	}
}

// TestBucketsMatchesReference drives Buckets and the reference with the
// same seeded random Append/take/Size/Min/Len sequences: appends, partial
// takes from either end, whole-bucket drains (re-creating drained buckets
// later), and runs of repeated minimum drains.
func TestBucketsMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		h := newBucketsHarness(t)
		r := rng.New(seed)
		const span = 40 // bucket numbers in [-span/2, span/2)
		for op := 0; op < 3000; op++ {
			b := int64(r.Intn(span)) - span/2
			switch k := r.Intn(10); {
			case k < 5:
				h.append(b)
			case k < 7:
				h.take(b, 1+r.Intn(3), k == 5)
			case k < 8:
				h.take(b, 1<<30, true)
			case k < 9:
				h.drainMin()
			default:
				for n := r.Intn(6); n > 0; n-- {
					h.drainMin()
				}
			}
		}
		h.checkAll(-span/2-1, span/2)
	}
}

// TestBucketsRecreateDrained empties the minimum bucket, re-creates it,
// and drains the minimum repeatedly while higher buckets stay queued —
// the delta-stepping pattern that made the old rescan walk a large map.
func TestBucketsRecreateDrained(t *testing.T) {
	h := newBucketsHarness(t)
	for b := int64(0); b < 2000; b++ {
		h.append(b)
	}
	for round := 0; round < 50; round++ {
		h.drainMin()
		h.append(int64(round)) // below or at the current minimum
		h.drainMin()
		h.append(int64(round + 1))
		h.take(int64(round+1), 1, false) // drained but not yet retired
		h.drainMin()
	}
	for h.bk.Len() > 0 {
		h.drainMin()
	}
	if _, ok := h.bk.Min(); ok {
		t.Fatal("drained Buckets still reports a minimum")
	}
	h.append(7)
	h.append(-3)
	h.checkAll(-4, 8)
}

// FuzzBuckets interprets a byte string as an Append/take/drain-min
// program against Buckets and the reference, checking contents, Size, Len
// and Min after every operation.
func FuzzBuckets(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0xff, 0x80, 0x40})
	f.Add([]byte("append take drain append"))
	f.Add([]byte{0x10, 0x11, 0x12, 0xd0, 0xd0, 0x10, 0xd1, 0x90})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			prog = prog[:4096]
		}
		h := newBucketsHarness(t)
		for _, op := range prog {
			b := int64(op&0x0f) - 8
			switch op >> 6 {
			case 0, 1:
				h.append(b)
			case 2:
				h.take(b, 1+int(op>>4&1), op&0x10 != 0)
			default:
				h.drainMin()
			}
		}
		h.checkAll(-8, 7)
	})
}
