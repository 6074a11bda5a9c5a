package mem

import (
	"slices"
	"testing"
	"testing/quick"

	"minnow/internal/rng"
	"minnow/internal/sim"
)

func TestLookupMissThenHit(t *testing.T) {
	c := NewCache(64, 4)
	if hit, _, _ := c.Lookup(5, false, true); hit {
		t.Fatal("cold lookup hit")
	}
	c.Fill(5, false, false, 0)
	if hit, _, _ := c.Lookup(5, false, true); !hit {
		t.Fatal("filled line missed")
	}
	if c.Stats.Accesses != 2 || c.Stats.Misses != 1 {
		t.Fatalf("stats %+v", c.Stats)
	}
}

func TestLRUEviction(t *testing.T) {
	c := NewCache(8, 4) // 2 sets, 4 ways
	// Fill one set (even lines map to set 0) past capacity.
	for line := uint64(0); line < 8; line += 2 {
		c.Fill(line, false, false, 0)
	}
	// Touch line 0 to refresh it, then insert another even line.
	c.Lookup(0, false, true)
	ev := c.Fill(8, false, false, 0)
	if !ev.Valid {
		t.Fatal("full set evicted nothing")
	}
	if ev.Line == 0 {
		t.Fatal("evicted the most recently used line")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := NewCache(4, 4)
	c.Fill(1, true, false, 0)
	for l := uint64(2); l <= 5; l++ {
		c.Fill(l, false, false, 0)
	}
	if c.Stats.Writebacks != 1 {
		t.Fatalf("writebacks %d", c.Stats.Writebacks)
	}
}

func TestPrefetchBitLifecycle(t *testing.T) {
	c := NewCache(16, 4)
	c.Fill(7, false, true, 0)
	if c.Stats.PrefetchFills != 1 {
		t.Fatal("prefetch fill not counted")
	}
	// Non-demand probe leaves the bit.
	if _, wasPF, _ := c.Lookup(7, false, false); wasPF {
		t.Fatal("non-demand lookup consumed the bit")
	}
	if !c.ProbePrefetch(7) {
		t.Fatal("bit gone after probe")
	}
	// Demand hit clears it exactly once.
	if _, wasPF, _ := c.Lookup(7, false, true); !wasPF {
		t.Fatal("demand hit did not report prefetch")
	}
	if _, wasPF, _ := c.Lookup(7, false, true); wasPF {
		t.Fatal("bit reported twice")
	}
	if c.Stats.PrefetchUsed != 1 {
		t.Fatalf("used %d", c.Stats.PrefetchUsed)
	}
}

func TestPrefetchWasteOnEviction(t *testing.T) {
	c := NewCache(4, 4)
	c.Fill(0, false, true, 0)
	for l := uint64(1); l <= 4; l++ {
		c.Fill(l, false, false, 0)
	}
	if c.Stats.PrefetchWaste != 1 {
		t.Fatalf("waste %d", c.Stats.PrefetchWaste)
	}
}

func TestMarkPrefetch(t *testing.T) {
	c := NewCache(16, 4)
	if c.MarkPrefetch(3) {
		t.Fatal("marked a missing line")
	}
	c.Fill(3, false, false, 0)
	if !c.MarkPrefetch(3) {
		t.Fatal("failed to mark resident line")
	}
	if c.MarkPrefetch(3) {
		t.Fatal("double mark consumed a second credit")
	}
}

func TestClearPrefetch(t *testing.T) {
	c := NewCache(16, 4)
	c.Fill(9, false, true, 0)
	if !c.ClearPrefetch(9) {
		t.Fatal("clear failed")
	}
	if c.ClearPrefetch(9) {
		t.Fatal("double clear")
	}
	if c.Stats.PrefetchUsed != 1 {
		t.Fatalf("used %d", c.Stats.PrefetchUsed)
	}
}

func TestInvalidate(t *testing.T) {
	c := NewCache(16, 4)
	c.Fill(11, true, true, 0)
	present, dirty, pf := c.Invalidate(11)
	if !present || !dirty || !pf {
		t.Fatalf("invalidate returned %v %v %v", present, dirty, pf)
	}
	if c.Contains(11) {
		t.Fatal("line survived invalidation")
	}
}

func TestReadyAtPropagates(t *testing.T) {
	c := NewCache(16, 4)
	c.Fill(2, false, false, 500)
	_, _, rdy := c.Lookup(2, false, true)
	if rdy != 500 {
		t.Fatalf("readyAt %d, want 500", rdy)
	}
}

func TestCapacityInvariant(t *testing.T) {
	// Property: after arbitrary fills, the number of resident lines
	// never exceeds capacity, and every filled line is either resident
	// or was evicted.
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		c := NewCache(32, 4)
		resident := make(map[uint64]bool)
		for i := 0; i < 500; i++ {
			line := uint64(r.Intn(100))
			if c.Contains(line) {
				continue
			}
			ev := c.Fill(line, false, false, 0)
			resident[line] = true
			if ev.Valid {
				delete(resident, ev.Line)
			}
		}
		if len(resident) > c.Lines() {
			return false
		}
		for line := range resident {
			if !c.Contains(line) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNewCachePanicsOnBadGeometry(t *testing.T) {
	for _, g := range []struct {
		lines, assoc int
		why          string
	}{
		{12, 4, "non-power-of-two sets"},
		{128, 64, "64 ways, wider than a set's prefetch mask,"},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", g.why)
				}
			}()
			NewCache(g.lines, g.assoc)
		}()
	}
}

// refWay and refCache are the cache as it was before its ways were
// packed into flat per-way arrays: one struct per way, one slice per
// set. They are kept verbatim as the reference that the packed Cache
// must match operation for operation.
type refWay struct {
	tag      uint64
	readyAt  sim.Time
	lru      uint32
	valid    bool
	dirty    bool
	prefetch bool
}

type refCache struct {
	sets  [][]refWay
	assoc int
	mask  uint64
	tick  uint32
	Stats CacheCounters
}

func newRefCache(lines, assoc int) *refCache {
	nsets := lines / assoc
	c := &refCache{assoc: assoc, mask: uint64(nsets - 1)}
	c.sets = make([][]refWay, nsets)
	backing := make([]refWay, nsets*assoc)
	for i := range c.sets {
		c.sets[i] = backing[i*assoc : (i+1)*assoc : (i+1)*assoc]
	}
	return c
}

func (c *refCache) setOf(line uint64) []refWay { return c.sets[line&c.mask] }

func (c *refCache) Lookup(line uint64, write, demand bool) (hit, wasPrefetch bool, readyAt sim.Time) {
	c.tick++
	c.Stats.Accesses++
	set := c.setOf(line)
	for i := range set {
		w := &set[i]
		if w.valid && w.tag == line {
			w.lru = c.tick
			if write {
				w.dirty = true
			}
			readyAt = w.readyAt
			if w.prefetch && demand {
				w.prefetch = false
				c.Stats.PrefetchUsed++
				return true, true, readyAt
			}
			return true, false, readyAt
		}
	}
	c.Stats.Misses++
	return false, false, 0
}

func (c *refCache) ProbePrefetch(line uint64) bool {
	set := c.setOf(line)
	for i := range set {
		if set[i].valid && set[i].tag == line && set[i].prefetch {
			return true
		}
	}
	return false
}

func (c *refCache) ClearPrefetch(line uint64) bool {
	set := c.setOf(line)
	for i := range set {
		w := &set[i]
		if w.valid && w.tag == line && w.prefetch {
			w.prefetch = false
			c.Stats.PrefetchUsed++
			return true
		}
	}
	return false
}

func (c *refCache) Contains(line uint64) bool {
	set := c.setOf(line)
	for i := range set {
		if set[i].valid && set[i].tag == line {
			return true
		}
	}
	return false
}

func (c *refCache) Fill(line uint64, dirty, prefetch bool, readyAt sim.Time) Evicted {
	c.tick++
	set := c.setOf(line)
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	w := &set[victim]
	ev := Evicted{Line: w.tag, Valid: w.valid, Dirty: w.dirty, Prefetch: w.prefetch}
	if ev.Valid {
		c.Stats.Evictions++
		if ev.Dirty {
			c.Stats.Writebacks++
		}
		if ev.Prefetch {
			c.Stats.PrefetchWaste++
		}
	}
	*w = refWay{tag: line, lru: c.tick, valid: true, dirty: dirty, prefetch: prefetch, readyAt: readyAt}
	if prefetch {
		c.Stats.PrefetchFills++
	}
	return ev
}

func (c *refCache) MarkPrefetch(line uint64) bool {
	set := c.setOf(line)
	for i := range set {
		w := &set[i]
		if w.valid && w.tag == line {
			if w.prefetch {
				return false
			}
			w.prefetch = true
			c.Stats.PrefetchFills++
			return true
		}
	}
	return false
}

func (c *refCache) CountPrefetchMarked() int {
	n := 0
	for _, set := range c.sets {
		for i := range set {
			if set[i].valid && set[i].prefetch {
				n++
			}
		}
	}
	return n
}

func (c *refCache) ValidLines(dst []uint64) []uint64 {
	for _, set := range c.sets {
		for i := range set {
			if set[i].valid {
				dst = append(dst, set[i].tag)
			}
		}
	}
	return dst
}

func (c *refCache) Invalidate(line uint64) (present, dirty, prefetch bool) {
	set := c.setOf(line)
	for i := range set {
		w := &set[i]
		if w.valid && w.tag == line {
			present, dirty, prefetch = true, w.dirty, w.prefetch
			w.valid = false
			return
		}
	}
	return
}

// runCacheProgram drives a Cache and a refCache with the same operations
// and fails at the first step where any return value, the Stats, the
// valid lines or the prefetch-marked count differ. prog[0] picks the
// geometry; each following pair of bytes is one operation (low 3 bits of
// the first: which method; its high bits: write, demand, dirty and
// prefetch flags) on one line (the second byte, folded onto three times
// the capacity so sets conflict). A line is filled only while absent, as
// the hierarchy does.
func runCacheProgram(t *testing.T, prog []byte) {
	t.Helper()
	if len(prog) == 0 {
		return
	}
	assoc := 1 << (prog[0] & 7 % 6) // 1..32 ways
	sets := 1 << (prog[0] >> 3 & 3) // 1..8 sets
	c, ref := NewCache(sets*assoc, assoc), newRefCache(sets*assoc, assoc)
	span := uint64(3 * sets * assoc)
	var got, want []uint64
	for step, i := 0, 1; i+1 < len(prog); step, i = step+1, i+2 {
		op, line := prog[i], uint64(prog[i+1])%span
		f1, f2 := op&0x40 != 0, op&0x80 != 0
		var g, w [3]any
		switch op & 7 {
		case 0, 1:
			h1, p1, r1 := c.Lookup(line, f1, f2)
			h2, p2, r2 := ref.Lookup(line, f1, f2)
			g, w = [3]any{h1, p1, r1}, [3]any{h2, p2, r2}
		case 2, 3:
			if ref.Contains(line) {
				continue
			}
			rdy := sim.Time(step)
			g[0] = c.Fill(line, f1, f2, rdy)
			ev := ref.Fill(line, f1, f2, rdy)
			if !ev.Valid {
				ev = Evicted{} // the reference reports an invalid victim's stale fields
			}
			w[0] = ev
		case 4:
			p1, d1, m1 := c.Invalidate(line)
			p2, d2, m2 := ref.Invalidate(line)
			g, w = [3]any{p1, d1, m1}, [3]any{p2, d2, m2}
		case 5:
			g[0], w[0] = c.MarkPrefetch(line), ref.MarkPrefetch(line)
			g[1], w[1] = c.ProbePrefetch(line), ref.ProbePrefetch(line)
		case 6:
			g[0], w[0] = c.ClearPrefetch(line), ref.ClearPrefetch(line)
		default:
			g[0], w[0] = c.Contains(line), ref.Contains(line)
			g[1], w[1] = c.ProbePrefetch(line), ref.ProbePrefetch(line)
		}
		if g != w {
			t.Fatalf("%d sets x %d ways, step %d (op %#x, line %d): got %v, reference %v", sets, assoc, step, op, line, g, w)
		}
		if c.Stats != ref.Stats {
			t.Fatalf("%d sets x %d ways, step %d: stats %+v, reference %+v", sets, assoc, step, c.Stats, ref.Stats)
		}
		if g, w := c.CountPrefetchMarked(), ref.CountPrefetchMarked(); g != w {
			t.Fatalf("%d sets x %d ways, step %d: %d lines prefetch-marked, reference %d", sets, assoc, step, g, w)
		}
		got, want = c.ValidLines(got[:0]), ref.ValidLines(want[:0])
		if !slices.Equal(got, want) {
			t.Fatalf("%d sets x %d ways, step %d: valid lines %v, reference %v", sets, assoc, step, got, want)
		}
	}
}

func TestCacheMatchesReference(t *testing.T) {
	r := rng.New(17)
	for trial := 0; trial < 200; trial++ {
		prog := make([]byte, 1+2*2000)
		for i := range prog {
			prog[i] = byte(r.Uint64())
		}
		runCacheProgram(t, prog)
	}
}

func FuzzCache(f *testing.F) {
	f.Add([]byte{0x0a, 0x02, 1, 0x00, 1, 0x85, 1, 0x06, 1})
	f.Add([]byte{0x1b, 0x82, 3, 0x42, 11, 0x80, 3, 0x04, 3, 0x43, 19, 0xc1, 11})
	f.Add([]byte("fill lookup invalidate mark clear probe contains"))
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4097 {
			prog = prog[:4097]
		}
		runCacheProgram(t, prog)
	})
}
