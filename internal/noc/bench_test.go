package noc

import (
	"testing"

	"minnow/internal/sim"
)

// BenchmarkTraverse measures one X-Y routed flit on the paper's 8x8 mesh
// between pseudo-random tiles, with time advancing so links contend only
// occasionally.
func BenchmarkTraverse(b *testing.B) {
	m := New(8, 8, 3)
	nodes := m.W * m.H
	state := uint64(1)
	var t sim.Time
	var sent int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		from, to := int(state>>32)%nodes, int(state>>48)%nodes
		m.Traverse(from, to, t)
		if from != to {
			sent++
		}
		t += 2
	}
	b.StopTimer()
	if m.Messages != sent {
		b.Fatalf("mesh counted %d messages, want %d", m.Messages, sent)
	}
}
