package dram

import (
	"testing"

	"minnow/internal/sim"
)

// BenchmarkAccess measures one 64B line access on the paper's 12-channel
// memory, at pseudo-random lines arriving one per cycle, which keeps the
// channels about two-thirds busy so some arrivals queue; the longest
// wait stays far inside contentionWindow (149 cycles over 10^8 such
// accesses), so each channel serves in arrival order. An untimed
// warm-up of 1,024 accesses runs before the timed ones, and every access
// is checked: it completes no sooner than the idle latency after it
// arrives, nor before its channel's previous completion. At the end each
// channel must have served some accesses and some must have queued.
func BenchmarkAccess(b *testing.B) {
	const warm = 1024
	m := New(DefaultConfig())
	lat := m.Config().LatencyCycles
	last := make([]sim.Time, m.Config().Channels)
	served := make([]int, m.Config().Channels)
	state := uint64(1)
	var t sim.Time
	access := func() {
		state = state*6364136223846793005 + 1442695040888963407
		line := state >> 24
		ch := m.channelOf(line)
		done := m.Access(line, t)
		if done < t+lat || done < last[ch] {
			b.Fatalf("line %#x at cycle %d on channel %d done at %d; idle latency %d, channel's last done %d",
				line, t, ch, done, lat, last[ch])
		}
		last[ch] = done
		served[ch]++
		t++
	}
	for i := 0; i < warm; i++ {
		access()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		access()
	}
	b.StopTimer()
	if m.Accesses != int64(warm+b.N) {
		b.Fatalf("memory counted %d accesses, want %d", m.Accesses, warm+b.N)
	}
	for ch, n := range served {
		if n == 0 {
			b.Fatalf("channel %d served none of %d accesses: %v", ch, m.Accesses, served)
		}
	}
	if m.StallCyc == 0 {
		b.Fatal("no access queued behind a busy channel at two-thirds load")
	}
}
