package noc

import (
	"fmt"
	"testing"

	"minnow/internal/rng"
	"minnow/internal/sim"
)

// refMesh is the mesh as it was before straight-leg traversal: it
// divides to find each node's coordinates and walks the X-Y route one
// hop at a time, choosing the direction and counting the flit and its
// stall at every hop. It is the reference Mesh must match.
type refMesh struct {
	w, hop   int
	nextFree []sim.Time

	flits, stallCyc, messages int64
}

func (m *refMesh) traverse(from, to int, start sim.Time) sim.Time {
	if from == to {
		return start
	}
	m.messages++
	t := start
	x, y := from%m.w, from/m.w
	tx, ty := to%m.w, to/m.w
	for x != tx {
		dir, nx := dirEast, x+1
		if tx < x {
			dir, nx = dirWest, x-1
		}
		t = m.crossLink(x, y, dir, t)
		x = nx
	}
	for y != ty {
		dir, ny := dirSouth, y+1
		if ty < y {
			dir, ny = dirNorth, y-1
		}
		t = m.crossLink(x, y, dir, t)
		y = ny
	}
	return t
}

func (m *refMesh) crossLink(x, y, dir int, t sim.Time) sim.Time {
	idx := (y*m.w+x)*4 + dir
	free := m.nextFree[idx]
	if free > t && free-t <= contentionWindow {
		m.stallCyc += int64(free - t)
		t = free
	}
	if t+1 > m.nextFree[idx] {
		m.nextFree[idx] = t + 1
	}
	m.flits++
	return t + sim.Time(m.hop)
}

// TestTraverseMatchesReference sends the same contended random traffic
// through Mesh and the hop-by-hop reference on square, oblong and
// single-row and single-column meshes. Many messages share each cycle,
// so links queue flits, and the clock sometimes steps back further than
// the contention window, so stale reservations are skipped too.
func TestTraverseMatchesReference(t *testing.T) {
	for _, dim := range [][2]int{{8, 8}, {4, 4}, {5, 3}, {1, 7}, {7, 1}} {
		w, h := dim[0], dim[1]
		t.Run(fmt.Sprintf("%dx%d", w, h), func(t *testing.T) {
			m := New(w, h, 3)
			ref := &refMesh{w: w, hop: 3, nextFree: make([]sim.Time, w*h*4)}
			r := rng.New(uint64(w*10 + h))
			var now sim.Time = 1000
			for i := 0; i < 20000; i++ {
				switch r.Intn(16) {
				case 0:
					now += sim.Time(r.Intn(8))
				case 1:
					now -= sim.Time(r.Intn(100))
				}
				from, to := r.Intn(w*h), r.Intn(w*h)
				got, want := m.Traverse(from, to, now), ref.traverse(from, to, now)
				if got != want {
					t.Fatalf("message %d (%d -> %d at %d): arrived %d, reference %d", i, from, to, now, got, want)
				}
			}
			if m.Flits != ref.flits || m.StallCyc != ref.stallCyc || m.Messages != ref.messages {
				t.Fatalf("flits/stall/messages %d/%d/%d, reference %d/%d/%d",
					m.Flits, m.StallCyc, m.Messages, ref.flits, ref.stallCyc, ref.messages)
			}
			if m.StallCyc == 0 {
				t.Fatal("traffic never contended")
			}
		})
	}
}
