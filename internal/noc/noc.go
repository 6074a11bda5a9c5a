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

	// col[id] and row[id] are node id's coordinates, so routing needs
	// no divide.
	col, row []int

	Flits    int64 // total link traversals
	StallCyc int64 // total cycles flits waited for links
	Messages int64

	// FaultDelay, when non-nil, returns an injected extra latency applied
	// once per message (deterministic fault injection). Nil in fault-free
	// runs, costing one comparison per message.
	FaultDelay func() sim.Time
}

// Directions for links leaving a node. A link's index is node*4+dir, so
// the next link along a straight leg is 4 further east (+4), west (−4),
// south (+4·W) or north (−4·W).
const (
	dirEast = iota
	dirWest
	dirNorth
	dirSouth
)

// New returns a mesh with the given dimensions and per-hop latency.
func New(w, h int, hopCycles sim.Time) *Mesh {
	m := &Mesh{
		W:         w,
		H:         h,
		HopCycles: hopCycles,
		nextFree:  make([]sim.Time, w*h*4),
		col:       make([]int, w*h),
		row:       make([]int, w*h),
	}
	for id := range m.col {
		m.col[id], m.row[id] = id%w, id/w
	}
	return m
}

// NodeOf returns the (x, y) coordinates of node id (row-major).
func (m *Mesh) NodeOf(id int) (x, y int) {
	return m.col[id], m.row[id]
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
	// X leg along from's row, then Y leg along the destination column
	// from the corner node from+dx.
	dx, dy := m.col[to]-m.col[from], m.row[to]-m.row[from]
	if dx > 0 {
		t = m.leg(from*4+dirEast, 4, dx, t)
	} else if dx < 0 {
		t = m.leg(from*4+dirWest, -4, -dx, t)
	}
	if dy > 0 {
		t = m.leg((from+dx)*4+dirSouth, 4*m.W, dy, t)
	} else if dy < 0 {
		t = m.leg((from+dx)*4+dirNorth, -4*m.W, -dy, t)
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

// leg sends the flit across hops consecutive links of one straight
// route leg, starting at link index idx and stepping by step, and
// returns its arrival time at the leg's end.
func (m *Mesh) leg(idx, step, hops int, t sim.Time) sim.Time {
	m.Flits += int64(hops)
	var stall int64
	for ; hops > 0; hops-- {
		free := m.nextFree[idx]
		if free > t && free-t <= contentionWindow {
			stall += int64(free - t)
			t = free
		}
		// The link is occupied for one flit cycle; the flit arrives at
		// the next router after the hop pipeline latency.
		if t+1 > free {
			m.nextFree[idx] = t + 1
		}
		t += m.HopCycles
		idx += step
	}
	m.StallCyc += stall
	return t
}

// Reset clears link reservations and counters.
func (m *Mesh) Reset() {
	for i := range m.nextFree {
		m.nextFree[i] = 0
	}
	m.Flits, m.StallCyc, m.Messages = 0, 0, 0
}
