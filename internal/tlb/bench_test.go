package tlb

import "testing"

// BenchmarkTranslate measures one core-side translation for each way it
// can resolve. Each case cycles through a page set sized for its level
// and checks the TLB's miss counters after the timed loop.
func BenchmarkTranslate(b *testing.B) {
	cfg := DefaultConfig()
	for _, c := range []struct {
		name  string
		pages uint64 // distinct pages cycled; 0 streams through fresh pages
	}{
		{"L1", 8},   // fits the 64-entry L1
		{"L2", 512}, // overflows every L1 set, fits the 1536-entry L2
		{"Walk", 0},
	} {
		b.Run(c.name, func(b *testing.B) {
			tl := New(cfg)
			addr := func(i int) uint64 {
				if c.pages == 0 {
					return uint64(i) << PageShift
				}
				return uint64(i) % c.pages << PageShift
			}
			for i := 0; i < 2*int(c.pages); i++ { // warm
				tl.Translate(addr(i))
			}
			l1, l2 := tl.L1Misses, tl.L2Misses
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tl.Translate(addr(i))
			}
			b.StopTimer()
			l1, l2 = tl.L1Misses-l1, tl.L2Misses-l2
			var wantL1, wantL2 int64
			switch c.name {
			case "L2":
				wantL1 = int64(b.N)
			case "Walk":
				wantL1, wantL2 = int64(b.N), int64(b.N)
			}
			if l1 != wantL1 || l2 != wantL2 {
				b.Fatalf("%d L1 and %d L2 misses in %d translations, want %d and %d", l1, l2, b.N, wantL1, wantL2)
			}
		})
	}
}
