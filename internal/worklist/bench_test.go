package worklist

import "testing"

// BenchmarkOBIMPushPop measures one OBIM push plus one pop, simulated
// memory accesses included, on 4 threads sharing one socket map. "spread"
// pushes each task to one of 4096 buckets, so chunks are published to a
// wide bucket map and pops keep draining its lowest bucket; "narrow"
// cycles through 8 buckets, the fast path's best case.
func BenchmarkOBIMPushPop(b *testing.B) {
	for _, c := range []struct {
		name    string
		buckets int64
	}{{"narrow", 8}, {"spread", 4096}} {
		b.Run(c.name, func(b *testing.B) {
			const threads = 4
			as, _, ctxs := testEnv(threads)
			wl := NewOBIM(as, threads, 1, 0)
			for i := 0; i < 8*chunkCap*threads; i++ {
				wl.Push(ctxs[i%threads], task(int64(i*7)%c.buckets, int32(i)))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				wl.Push(ctxs[i%threads], task(int64(i*7)%c.buckets, int32(i)))
				if _, ok := wl.Pop(ctxs[(i+1)%threads]); !ok {
					b.Fatal("pop found no work")
				}
			}
		})
	}
}
