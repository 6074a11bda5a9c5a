package noc

import (
	"testing"
	"testing/quick"

	"minnow/internal/sim"
)

func TestHops(t *testing.T) {
	m := New(8, 8, 3)
	cases := []struct {
		from, to, want int
	}{
		{0, 0, 0},
		{0, 7, 7},   // same row
		{0, 56, 7},  // same column
		{0, 63, 14}, // opposite corner
		{9, 18, 2},  // (1,1) -> (2,2)
		{63, 0, 14}, // symmetric
	}
	for _, c := range cases {
		if got := m.Hops(c.from, c.to); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.from, c.to, got, c.want)
		}
	}
}

func TestTraverseLatency(t *testing.T) {
	m := New(8, 8, 3)
	// Uncontended: start + hops*hopCycles.
	arr := m.Traverse(0, 63, 100)
	if arr != 100+14*3 {
		t.Fatalf("arrival %d, want %d", arr, 100+14*3)
	}
	if m.Messages != 1 {
		t.Fatalf("messages %d", m.Messages)
	}
}

func TestZeroHopFree(t *testing.T) {
	m := New(4, 4, 3)
	if arr := m.Traverse(5, 5, 42); arr != 42 {
		t.Fatalf("self-traverse cost %d cycles", arr-42)
	}
}

func TestLinkContention(t *testing.T) {
	m := New(8, 1, 3)
	// Two messages over the same link at the same time: the second waits
	// one flit cycle at the first link.
	a := m.Traverse(0, 7, 0)
	b := m.Traverse(0, 7, 0)
	if b <= a {
		t.Fatalf("no serialization: %d vs %d", a, b)
	}
	if m.StallCyc == 0 {
		t.Fatal("no stall cycles recorded")
	}
}

func TestRoundTrip(t *testing.T) {
	m := New(4, 4, 2)
	rt := m.RoundTrip(0, 3, 10)
	if rt != 10+2*3*2 {
		t.Fatalf("roundtrip %d, want %d", rt, 10+12)
	}
}

func TestTraverseMonotonicProperty(t *testing.T) {
	m := New(8, 8, 3)
	if err := quick.Check(func(from, to uint8, start uint16) bool {
		f, d := int(from)%64, int(to)%64
		s := sim.Time(start)
		arr := m.Traverse(f, d, s)
		return arr >= s+sim.Time(m.Hops(f, d))*m.HopCycles
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestReset(t *testing.T) {
	m := New(4, 4, 3)
	m.Traverse(0, 15, 0)
	m.Traverse(0, 15, 0)
	m.Reset()
	if m.Flits != 0 || m.StallCyc != 0 || m.Messages != 0 {
		t.Fatal("reset did not clear counters")
	}
	if arr := m.Traverse(0, 15, 0); arr != sim.Time(m.Hops(0, 15))*3 {
		t.Fatalf("post-reset latency %d", arr)
	}
}

func TestNodeOf(t *testing.T) {
	m := New(8, 8, 3)
	x, y := m.NodeOf(10)
	if x != 2 || y != 1 {
		t.Fatalf("NodeOf(10) = (%d,%d)", x, y)
	}
}
