package tlb

import (
	"testing"

	"minnow/internal/rng"
)

func testConfig() Config {
	c := DefaultConfig()
	c.L1Entries, c.L1Assoc = 4, 2
	c.L2Entries, c.L2Assoc = 16, 4
	return c
}

func TestHitAfterWalk(t *testing.T) {
	tl := New(testConfig())
	addr := uint64(0x1234567)
	first := tl.Translate(addr)
	if first != testConfig().L2HitCycles+testConfig().WalkCycles {
		t.Fatalf("cold translate cost %d", first)
	}
	if got := tl.Translate(addr); got != testConfig().L1HitCycles {
		t.Fatalf("warm translate cost %d", got)
	}
	if tl.Walks != 1 {
		t.Fatalf("walks %d", tl.Walks)
	}
}

func TestL2Inclusion(t *testing.T) {
	tl := New(testConfig())
	// Fill beyond L1 capacity within one L1 set: all these pages map to
	// different sets generally; just check L1 miss/L2 hit path works.
	pages := []uint64{0, 1, 2, 3, 4, 5, 6, 7}
	for _, p := range pages {
		tl.Translate(p << PageShift)
	}
	// Page 0 may have fallen out of the tiny L1 but must still hit L2.
	walks := tl.Walks
	cost := tl.Translate(0)
	if tl.Walks != walks {
		t.Fatalf("L2 lost an entry (cost %d)", cost)
	}
}

func TestCapacityEviction(t *testing.T) {
	tl := New(testConfig())
	// 64 distinct pages overflow the 16-entry L2: re-touching page 0
	// must walk again.
	for p := uint64(0); p < 64; p++ {
		tl.Translate(p << PageShift)
	}
	walks := tl.Walks
	tl.Translate(0)
	if tl.Walks != walks+1 {
		t.Fatal("expected a walk after capacity eviction")
	}
}

func TestEngineTranslate(t *testing.T) {
	cfg := testConfig()
	tl := New(cfg)
	d, exc := tl.EngineTranslate(0x9000)
	if !exc {
		t.Fatal("cold engine access did not raise an exception")
	}
	if d != cfg.L2HitCycles+cfg.ExcCycles+cfg.WalkCycles {
		t.Fatalf("engine miss cost %d", d)
	}
	d, exc = tl.EngineTranslate(0x9000)
	if exc {
		t.Fatal("retry missed after refill")
	}
	if d != cfg.L2HitCycles {
		t.Fatalf("engine hit cost %d", d)
	}
	if tl.EngMisses != 1 {
		t.Fatalf("engine misses %d", tl.EngMisses)
	}
}

func TestEngineSeesCoreTranslations(t *testing.T) {
	tl := New(testConfig())
	tl.Translate(0x5000) // core walk installs into L2
	if _, exc := tl.EngineTranslate(0x5000); exc {
		t.Fatal("engine missed a page the core just walked")
	}
}

func TestSamePageSharesEntry(t *testing.T) {
	tl := New(testConfig())
	tl.Translate(0x2000)
	if got := tl.Translate(0x2fff); got != 0 {
		t.Fatalf("same-page access cost %d", got)
	}
}

// refSet and refLevel are a TLB level as it was before its sets were
// flattened: one pair of separately allocated slices per set, indexed
// with %. They are kept verbatim as the reference that the flat level
// must match lookup for lookup.
type refSet struct {
	tags []uint64
	lru  []uint64
}

type refLevel struct {
	sets  []refSet
	assoc int
	tick  uint64
}

func newRefLevel(entries, assoc int) *refLevel {
	if assoc < 1 {
		assoc = 1
	}
	nsets := entries / assoc
	if nsets < 1 {
		nsets = 1
	}
	l := &refLevel{assoc: assoc, sets: make([]refSet, nsets)}
	for i := range l.sets {
		l.sets[i] = refSet{tags: make([]uint64, assoc), lru: make([]uint64, assoc)}
	}
	for i := range l.sets {
		for w := range l.sets[i].tags {
			l.sets[i].tags[w] = ^uint64(0)
		}
	}
	return l
}

func (l *refLevel) lookup(page uint64, insert bool) bool {
	l.tick++
	s := &l.sets[page%uint64(len(l.sets))]
	for w, t := range s.tags {
		if t == page {
			s.lru[w] = l.tick
			return true
		}
	}
	if insert {
		victim := 0
		for w := 1; w < l.assoc; w++ {
			if s.lru[w] < s.lru[victim] {
				victim = w
			}
		}
		s.tags[victim] = page
		s.lru[victim] = l.tick
	}
	return false
}

// TestTLBMatchesReference drives flat levels and reference levels of
// several geometries (the defaults' among them) with the same seeded
// lookups, inserting and not, and compares every result and, after every
// lookup, every way's tag and LRU stamp.
func TestTLBMatchesReference(t *testing.T) {
	r := rng.New(29)
	for _, g := range []struct{ entries, assoc int }{
		{1, 1}, {4, 2}, {16, 4}, {64, 4}, {96, 12}, {1536, 12}, {32, 32},
	} {
		l, ref := newLevel(g.entries, g.assoc), newRefLevel(g.entries, g.assoc)
		span := 3 * g.entries
		for step := 0; step < 20000; step++ {
			page, insert := uint64(r.Intn(span)), r.Intn(2) == 0
			if got, want := l.lookup(page, insert), ref.lookup(page, insert); got != want {
				t.Fatalf("%d entries x %d ways, step %d: lookup(%d, %v) = %v, reference %v", g.entries, g.assoc, step, page, insert, got, want)
			}
			for s, set := range ref.sets {
				for w := range set.tags {
					i := s*g.assoc + w
					if l.tags[i] != set.tags[w] || l.lru[i] != set.lru[w] {
						t.Fatalf("%d entries x %d ways, step %d: set %d way %d holds page %d (lru %d), reference %d (lru %d)",
							g.entries, g.assoc, step, s, w, l.tags[i], l.lru[i], set.tags[w], set.lru[w])
					}
				}
			}
		}
	}
}

func TestNewPanicsOnNonPowerOfTwoSets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a 3-set L2 TLB did not panic")
		}
	}()
	cfg := DefaultConfig()
	cfg.L2Entries = 36 // 3 sets of 12 ways
	New(cfg)
}
