package dram

import (
	"testing"

	"minnow/internal/sim"
)

func TestIdleLatency(t *testing.T) {
	m := New(Config{Channels: 4, LatencyCycles: 100, ServiceCycles: 8})
	if done := m.Access(0, 50); done != 150 {
		t.Fatalf("done %d, want 150", done)
	}
}

func TestChannelInterleaving(t *testing.T) {
	m := New(Config{Channels: 4, LatencyCycles: 100, ServiceCycles: 8})
	// Lines 0..3 land on distinct channels: no queueing.
	for line := uint64(0); line < 4; line++ {
		if done := m.Access(line, 0); done != 100 {
			t.Fatalf("line %d done %d, want 100", line, done)
		}
	}
	if m.StallCyc != 0 {
		t.Fatal("interleaved accesses stalled")
	}
}

func TestQueueing(t *testing.T) {
	m := New(Config{Channels: 1, LatencyCycles: 100, ServiceCycles: 8})
	var prev sim.Time
	for i := 0; i < 5; i++ {
		done := m.Access(0, 0)
		if done <= prev && i > 0 {
			t.Fatalf("access %d not serialized: %d after %d", i, done, prev)
		}
		prev = done
	}
	// 5 accesses at 8 cycles service: last starts at 32.
	if prev != 32+100 {
		t.Fatalf("last done %d, want 132", prev)
	}
	if m.PeakQueue == 0 || m.StallCyc == 0 {
		t.Fatal("queueing not recorded")
	}
}

func TestBandwidthScalesWithChannels(t *testing.T) {
	run := func(channels int) sim.Time {
		m := New(Config{Channels: channels, LatencyCycles: 100, ServiceCycles: 8})
		var last sim.Time
		for line := uint64(0); line < 64; line++ {
			if d := m.Access(line, 0); d > last {
				last = d
			}
		}
		return last
	}
	if run(12) >= run(1) {
		t.Fatal("12 channels not faster than 1")
	}
}

func TestReset(t *testing.T) {
	m := New(DefaultConfig())
	m.Access(0, 0)
	m.Access(0, 0)
	m.Reset()
	if m.Accesses != 0 || m.StallCyc != 0 {
		t.Fatal("reset did not clear")
	}
	if d := m.Access(0, 0); d != m.Config().LatencyCycles {
		t.Fatalf("post-reset latency %d", d)
	}
}

func TestPanicsWithoutChannels(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero channels did not panic")
		}
	}()
	New(Config{})
}
