package mem

import (
	"testing"

	"minnow/internal/sim"
)

// BenchmarkAccess measures one demand load through System.Access on a
// 16-core system with the harness's scaled caches, for each level that
// can serve it. Each case cycles through a working set sized to hit at
// that level and checks the level on the last access.
func BenchmarkAccess(b *testing.B) {
	for _, c := range []struct {
		name  string
		lines uint64 // working-set size; 0 streams through fresh lines
		level uint8
	}{
		{"L1", 8, 1},
		{"L2", 128, 2},
		{"L3", 2048, 3},
		{"DRAM", 0, 4},
	} {
		b.Run(c.name, func(b *testing.B) {
			s := testSystem(16)
			addr := func(i int) uint64 {
				if c.lines == 0 {
					return uint64(i) * LineSize
				}
				return uint64(i) % c.lines * LineSize
			}
			var now sim.Time
			for i := 0; i < 4*int(c.lines); i++ { // warm the working set
				now = s.Access(0, addr(i), Load, now).Done
			}
			b.ReportAllocs()
			b.ResetTimer()
			var res Result
			for i := 0; i < b.N; i++ {
				res = s.Access(0, addr(i), Load, now)
				now = res.Done
			}
			b.StopTimer()
			if res.Level != c.level {
				b.Fatalf("last access served at level %d, want %d", res.Level, c.level)
			}
		})
	}
}
