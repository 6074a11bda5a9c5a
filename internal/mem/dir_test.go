package mem

import (
	"testing"

	"minnow/internal/rng"
	"minnow/internal/sim"
)

// dirHarness applies the same operations to a directory and to a plain
// map and checks that they agree.
type dirHarness struct {
	t   *testing.T
	d   directory
	ref map[uint64]dirEntry
}

func newDirHarness(t *testing.T, lines int) *dirHarness {
	return &dirHarness{t: t, d: newDirectory(lines), ref: map[uint64]dirEntry{}}
}

func (h *dirHarness) put(line uint64, e dirEntry) {
	h.d.put(line, e)
	h.ref[line] = e
}

func (h *dirHarness) del(line uint64) {
	if i, ok := h.d.find(line); ok {
		h.d.deleteAt(i)
	}
	delete(h.ref, line)
}

// check compares every entry both ways, the live count, and that each
// entry sits on its own probe chain (no empty slot between its home and
// its slot).
func (h *dirHarness) check() {
	h.t.Helper()
	if h.d.n != len(h.ref) {
		h.t.Fatalf("directory holds %d entries, want %d", h.d.n, len(h.ref))
	}
	for line, want := range h.ref {
		if got, ok := h.d.get(line); !ok || got != want {
			h.t.Fatalf("get(%#x) = %+v,%v, want %+v", line, got, ok, want)
		}
	}
	seen := 0
	h.d.each(func(line uint64, e dirEntry) {
		seen++
		if want, ok := h.ref[line]; !ok || want != e {
			h.t.Fatalf("each visited %#x = %+v, map has %+v,%v", line, e, want, ok)
		}
	})
	if seen != len(h.ref) {
		h.t.Fatalf("each visited %d entries, want %d", seen, len(h.ref))
	}
	mask := len(h.d.slots) - 1
	for i, s := range h.d.slots {
		if s.key == 0 {
			continue
		}
		for j := h.d.home(s.key); j != i; j = (j + 1) & mask {
			if h.d.slots[j].key == 0 {
				h.t.Fatalf("slot %d (line %#x) is cut off from its home %d by empty slot %d",
					i, s.key-1, h.d.home(s.key), j)
			}
		}
	}
}

// linesHomedAt returns n lines whose home slot in d is slot.
func linesHomedAt(d *directory, slot, n int) []uint64 {
	var out []uint64
	for line := uint64(0); len(out) < n; line++ {
		if d.home(line+1) == slot {
			out = append(out, line)
		}
	}
	return out
}

// TestDirectoryMatchesMap drives the directory and a map with the same
// seeded random puts, updates and deletes, starting from the smallest
// table so it grows several times.
func TestDirectoryMatchesMap(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		h := newDirHarness(t, 1)
		r := rng.New(seed)
		for op := 0; op < 4000; op++ {
			line := r.Uint64() % 600
			if r.Intn(3) == 0 {
				h.del(line)
			} else {
				h.put(line, dirEntry{sharers: r.Uint64() | 1, dirtyOwner: int8(r.Intn(65) - 1)})
			}
			if op%50 == 0 {
				h.check()
			}
		}
		h.check()
		if len(h.d.slots) <= 16 {
			t.Fatalf("seed %d: table never grew (%d slots)", seed, len(h.d.slots))
		}
	}
}

// TestDirectoryWrappedChain builds a probe chain that starts in the last
// slot and wraps past the table's end, then deletes from its middle: the
// entries behind the hole must shift back across the wrap and stay
// reachable.
func TestDirectoryWrappedChain(t *testing.T) {
	h := newDirHarness(t, 1)
	last := len(h.d.slots) - 1
	chain := linesHomedAt(&h.d, last, 4)
	zero := linesHomedAt(&h.d, 0, 1)[0]
	for i, line := range chain {
		h.put(line, dirEntry{sharers: 1 << uint(i), dirtyOwner: -1})
	}
	h.put(zero, dirEntry{sharers: 1 << 9, dirtyOwner: -1})
	if i, _ := h.d.find(chain[3]); i != 2 {
		t.Fatalf("4th entry homed at slot %d sits in slot %d, want wrapped slot 2", last, i)
	}
	h.check()
	h.del(chain[1]) // middle of the chain, before the wrap
	h.check()
	h.del(chain[0]) // head of the chain
	h.check()
	h.put(chain[1], dirEntry{sharers: 1 << 20, dirtyOwner: 20})
	h.check()
	h.del(chain[3]) // past the wrap
	h.check()
	h.del(zero)
	h.check()
	for _, line := range chain {
		h.del(line)
	}
	h.check()
	for i, s := range h.d.slots {
		if s.key != 0 {
			t.Fatalf("slot %d still holds line %#x after every delete", i, s.key-1)
		}
	}
}

// TestDirectoryGrowth fills a table well past its initial size, checks
// every entry survives each doubling, then empties it again.
func TestDirectoryGrowth(t *testing.T) {
	h := newDirHarness(t, 12)
	if len(h.d.slots) != 16 {
		t.Fatalf("12 lines sized %d slots, want 16", len(h.d.slots))
	}
	for line := uint64(0); line < 5000; line += 3 {
		h.put(line<<6, dirEntry{sharers: line, dirtyOwner: -1})
		if h.d.n*4 > len(h.d.slots)*3 {
			t.Fatalf("%d entries in %d slots exceed 3/4 load", h.d.n, len(h.d.slots))
		}
	}
	h.check()
	for line := uint64(0); line < 5000; line += 3 {
		h.del(line << 6)
	}
	h.check()
	if h.d.n != 0 {
		t.Fatalf("%d entries left", h.d.n)
	}
}

// TestDirectoryStaysWithinL2Bound runs a sharing-heavy access mix and
// checks the directory never outgrows the size NewSystem gives it: a
// line is tracked only while some L2 holds it.
func TestDirectoryStaysWithinL2Bound(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.ScaleCaches(16)
	s := NewSystem(cfg)
	slots := len(s.dir.slots)
	r := rng.New(5)
	var now [4]sim.Time
	for i := 0; i < 50000; i++ {
		core := r.Intn(4)
		kind := Load
		if r.Intn(4) == 0 {
			kind = Store
		}
		res := s.Access(core, r.Uint64()%(1<<18)&^7, kind, now[core])
		now[core] = res.Done
	}
	if s.dir.n > cfg.Cores*cfg.L2Lines {
		t.Fatalf("directory tracks %d lines, more than the %d L2 lines", s.dir.n, cfg.Cores*cfg.L2Lines)
	}
	if len(s.dir.slots) != slots {
		t.Fatalf("directory grew from %d to %d slots", slots, len(s.dir.slots))
	}
	if v := s.CheckInvariants(); len(v) != 0 {
		t.Fatalf("invariants: %v", v)
	}
}
