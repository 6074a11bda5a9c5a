// Package noc models the on-chip interconnect: a 2D mesh with X-Y
// dimension-order routing, a fixed per-hop pipeline latency, and per-link
// busy-until contention (Table 3: 8x8 mesh, 512-bit links, 3 cycles/hop).
//
// A 64B cache line is exactly one 512-bit flit, so every message occupies
// each link on its path for one cycle. Contention is modeled by keeping a
// next-free time per directed link and serializing flits that want the
// same link.
//
// Determinism contract: routes are a pure function of (src, dst) and link
// reservations depend only on the timestamped traversal sequence, so
// identical traffic always produces identical stall cycles. The Flits and
// StallCyc counters are read-only inputs to the observability probes.
//
// Bound/weave placement: per-link busy-until reservations are shared
// mutable state between every actor whose traffic crosses the mesh, so
// the mesh may only be driven from sim.Engine.RunParallel's weave phase;
// an actor that can reach it on its next step declares
// sim.HorizonAlwaysWeave.
package noc

import "minnow/internal/sim"

// Mesh is an  W x H  mesh network.
type Mesh struct {
	W, H      int
	HopCycles sim.Time // pipeline latency per hop

	// nextFree[node*4+dir] is the earliest time the directed link leaving
	// node in direction dir can accept the next flit.
	nextFree []sim.Time

	Flits    int64 // total link traversals
	StallCyc int64 // total cycles flits waited for links
	Messages int64

	// FaultDelay, when non-nil, returns an injected extra latency applied
	// once per message (deterministic fault injection). Nil in fault-free
	// runs, costing one comparison per message.
	FaultDelay func() sim.Time
}

// Directions for links leaving a node.
const (
	dirEast = iota
	dirWest
	dirNorth
	dirSouth
)

// New returns a mesh with the given dimensions and per-hop latency.
func New(w, h int, hopCycles sim.Time) *Mesh {
	return &Mesh{
		W:         w,
		H:         h,
		HopCycles: hopCycles,
		nextFree:  make([]sim.Time, w*h*4),
	}
}

// NodeOf returns the (x, y) coordinates of node id (row-major).
func (m *Mesh) NodeOf(id int) (x, y int) {
	return id % m.W, id / m.W
}

// Hops returns the Manhattan distance between two nodes.
func (m *Mesh) Hops(from, to int) int {
	fx, fy := m.NodeOf(from)
	tx, ty := m.NodeOf(to)
	dx := fx - tx
	if dx < 0 {
		dx = -dx
	}
	dy := fy - ty
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// Traverse sends one flit from node `from` to node `to` starting at time
// `start`, reserving each link along the X-Y route, and returns the
// arrival time. A zero-hop traversal (from == to) is free.
func (m *Mesh) Traverse(from, to int, start sim.Time) sim.Time {
	if from == to {
		return start
	}
	m.Messages++
	t := start
	if m.FaultDelay != nil {
		t += m.FaultDelay()
	}
	x, y := m.NodeOf(from)
	tx, ty := m.NodeOf(to)
	for x != tx {
		dir := dirEast
		nx := x + 1
		if tx < x {
			dir = dirWest
			nx = x - 1
		}
		t = m.crossLink(x, y, dir, t)
		x = nx
	}
	for y != ty {
		dir := dirSouth
		ny := y + 1
		if ty < y {
			dir = dirNorth
			ny = y - 1
		}
		t = m.crossLink(x, y, dir, t)
		y = ny
	}
	return t
}

// RoundTrip returns the time at which a request sent at start and its
// reply have both traversed the mesh.
func (m *Mesh) RoundTrip(from, to int, start sim.Time) sim.Time {
	arrive := m.Traverse(from, to, start)
	return m.Traverse(to, from, arrive)
}

// contentionWindow bounds how far in the past an arrival may be relative
// to the link's last reservation and still be queued behind it. Actor
// local clocks are skewed by up to one scheduling step (bound-weave
// approximation); reservations further ahead than this window reflect that
// skew, not real contention, and are ignored rather than waited on.
const contentionWindow = 64

func (m *Mesh) crossLink(x, y, dir int, t sim.Time) sim.Time {
	idx := (y*m.W+x)*4 + dir
	free := m.nextFree[idx]
	if free > t && free-t <= contentionWindow {
		m.StallCyc += int64(free - t)
		t = free
	}
	// The link is occupied for one flit cycle; the flit arrives at the
	// next router after the hop pipeline latency.
	if t+1 > m.nextFree[idx] {
		m.nextFree[idx] = t + 1
	}
	m.Flits++
	return t + m.HopCycles
}

// Reset clears link reservations and counters.
func (m *Mesh) Reset() {
	for i := range m.nextFree {
		m.nextFree[i] = 0
	}
	m.Flits, m.StallCyc, m.Messages = 0, 0, 0
}
