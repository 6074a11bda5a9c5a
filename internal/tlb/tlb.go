// Package tlb models per-core address translation: a small L1 TLB backed
// by a larger L2 TLB (inclusive, as §4 of the paper assumes), with a fixed
// page-walk cost on an L2 TLB miss.
//
// Minnow engines translate through their core's L2 TLB only; an engine
// access that misses the L2 TLB raises an exception serviced by the host
// core (minnow_enqueue/dequeue "may cause TLB miss exception").
//
// Each level stores its entries in two flat set-major arrays (page tags
// and LRU stamps) and picks a set by masking the page number, so the set
// count, entries/assoc, must be a power of two; New panics otherwise.
//
// Determinism contract: TLB state evolves only through the translated
// access stream (LRU over page numbers), so identical address sequences
// always hit and miss identically.
package tlb

import "minnow/internal/sim"

// PageShift is log2 of the 4 KiB page size.
const PageShift = 12

// Config sets TLB sizes and penalties.
type Config struct {
	L1Entries     int
	L2Entries     int
	L1Assoc       int
	L2Assoc       int
	L1HitCycles   sim.Time // extra cycles on an L1 TLB hit (pipelined: 0)
	L2HitCycles   sim.Time // extra cycles on L1 miss / L2 hit
	WalkCycles    sim.Time // page table walk on full miss
	ExcCycles     sim.Time // host-core exception overhead for engine misses
	EngineRefills bool     // engine misses install into the L2 TLB
}

// DefaultConfig approximates a Skylake-class TLB.
func DefaultConfig() Config {
	return Config{
		L1Entries:     64,
		L2Entries:     1536,
		L1Assoc:       4,
		L2Assoc:       12,
		L1HitCycles:   0,
		L2HitCycles:   7,
		WalkCycles:    100,
		ExcCycles:     150,
		EngineRefills: true,
	}
}

// level is one set-associative TLB level. Entries are stored flat,
// set-major: way w of set s is index s*assoc+w in tags and lru.
type level struct {
	tags  []uint64 // page numbers; ^0 marks an empty way
	lru   []uint64
	assoc int
	mask  uint64 // sets-1; the set count is a power of two
	tick  uint64
}

func newLevel(entries, assoc int) *level {
	if assoc < 1 {
		assoc = 1
	}
	nsets := entries / assoc
	if nsets < 1 {
		nsets = 1
	}
	if nsets&(nsets-1) != 0 {
		panic("tlb: set count (entries/assoc) must be a power of two")
	}
	l := &level{
		tags:  make([]uint64, nsets*assoc),
		lru:   make([]uint64, nsets*assoc),
		assoc: assoc,
		mask:  uint64(nsets - 1),
	}
	// Tag 0 is a valid page number; use an impossible sentinel.
	for i := range l.tags {
		l.tags[i] = ^uint64(0)
	}
	return l
}

func (l *level) lookup(page uint64, insert bool) bool {
	l.tick++
	base := int(page&l.mask) * l.assoc
	tags, lru := l.tags[base:base+l.assoc], l.lru[base:base+l.assoc]
	for w, t := range tags {
		if t == page {
			lru[w] = l.tick
			return true
		}
	}
	if insert {
		victim := 0
		for w := 1; w < len(lru); w++ {
			if lru[w] < lru[victim] {
				victim = w
			}
		}
		tags[victim] = page
		lru[victim] = l.tick
	}
	return false
}

// TLB is one core's two-level TLB.
type TLB struct {
	cfg Config
	l1  *level
	l2  *level

	L1Misses  int64
	L2Misses  int64
	Walks     int64
	EngMisses int64 // engine-side L2 TLB misses (exceptions)
}

// New returns a TLB with the given configuration. It panics when either
// level's set count (entries/assoc) is not a power of two.
func New(cfg Config) *TLB {
	return &TLB{cfg: cfg, l1: newLevel(cfg.L1Entries, cfg.L1Assoc), l2: newLevel(cfg.L2Entries, cfg.L2Assoc)}
}

// Translate models a core-side access to addr at time t and returns the
// translation delay in cycles.
func (t *TLB) Translate(addr uint64) sim.Time {
	page := addr >> PageShift
	if t.l1.lookup(page, false) {
		return t.cfg.L1HitCycles
	}
	t.L1Misses++
	if t.l2.lookup(page, false) {
		t.l1.lookup(page, true)
		return t.cfg.L2HitCycles
	}
	t.L2Misses++
	t.Walks++
	t.l2.lookup(page, true)
	t.l1.lookup(page, true)
	return t.cfg.L2HitCycles + t.cfg.WalkCycles
}

// EngineTranslate models a Minnow-engine access, which consults only the
// L2 TLB. On a miss the engine raises an exception to the host core; the
// returned delay includes the exception service and the walk, and the
// translation is installed so retries hit.
func (t *TLB) EngineTranslate(addr uint64) (delay sim.Time, exception bool) {
	page := addr >> PageShift
	if t.l2.lookup(page, false) {
		return t.cfg.L2HitCycles, false
	}
	t.EngMisses++
	t.Walks++
	if t.cfg.EngineRefills {
		t.l2.lookup(page, true)
	}
	return t.cfg.L2HitCycles + t.cfg.ExcCycles + t.cfg.WalkCycles, true
}
