// Package mem models the CMP memory hierarchy: per-core L1D and L2
// caches, a banked shared L3 with an idealized sharer directory, the NoC
// between them, and DRAM channels behind the L3. The L2 carries the one
// prefetch bit per line that Minnow's credit-based throttling relies on
// (§5.3.1 of the paper).
//
// Layout: a Cache keeps its ways in flat set-major arrays (tags, fill
// times, LRU stamps, dirty bits), so probing a set reads one contiguous
// run of tags, and keeps the prefetch bits as one mask per set, so the
// credit-return probe made on every L1 demand hit costs one load when
// the set holds no marked line. The layout is a host-speed choice only;
// hits, victims and counters are those of a plain per-way model.
//
// Data values are never stored here — the hierarchy tracks *addresses*
// only. Benchmark state lives in ordinary Go slices; kernels compute the
// simulated addresses of what they touch from the CSR layout and feed
// those addresses through this model for timing.
//
// Determinism contract (§2 of sim's scheme): cache and directory state
// evolve only through the timestamped access stream the actor ordering
// fixes, so hit/miss outcomes and latencies reproduce exactly. The
// timeline hooks (System.TL) observe misses and writebacks as they are
// timed; they never alter replacement or coherence decisions.
//
// Bound/weave placement: a System is a weave-serialized shared resource.
// Every Access — including an L1 hit — mutates state visible to all
// cores (latency accounting, directory and replacement metadata, bank
// reservations), so any actor that can reach a shared System inside an
// epoch has interaction horizon 0 in sim.Engine.RunParallel; only the
// (time, ID)-ordered weave may call into it.
package mem

import (
	"math/bits"

	"minnow/internal/sim"
)

// LineShift is log2 of the 64-byte line size.
const LineShift = 6

// LineSize is the cache line size in bytes.
const LineSize = 1 << LineShift

// LineAddr returns the line-granular address of a byte address.
func LineAddr(addr uint64) uint64 { return addr >> LineShift }

// Evicted describes a line displaced by a fill. A fill into an invalid
// way evicts nothing and returns the zero Evicted.
type Evicted struct {
	Line     uint64
	Valid    bool
	Dirty    bool
	Prefetch bool
}

// Cache is one set-associative, write-back, write-allocate cache (or one
// L3 bank). All methods take line addresses.
// Way w of set s is index s*assoc+w in every per-way array (see the
// package doc for why the ways are laid out this way).
type Cache struct {
	tags    []uint64   // line+1; 0 marks an invalid way
	readyAt []sim.Time // fill completion; hits before this wait (in-flight line)
	lru     []uint32
	dirty   []bool
	pf      []uint32 // per set: bit w set when way w is prefetch-marked (L2 only)
	assoc   int
	mask    uint64
	tick    uint32
	Stats   CacheCounters
}

// CacheCounters tracks raw event counts for one cache.
type CacheCounters struct {
	Accesses      int64
	Misses        int64
	Evictions     int64
	Writebacks    int64
	PrefetchFills int64
	PrefetchUsed  int64
	PrefetchWaste int64
}

// NewCache builds a cache with the given total line count and
// associativity. lines must be a multiple of assoc, lines/assoc a power
// of two, and assoc at most 32 (the width of a set's prefetch mask).
func NewCache(lines, assoc int) *Cache {
	nsets := lines / assoc
	if nsets <= 0 || nsets&(nsets-1) != 0 {
		panic("mem: cache sets must be a positive power of two")
	}
	if assoc > 32 {
		panic("mem: cache associativity above 32")
	}
	n := nsets * assoc
	return &Cache{
		tags:    make([]uint64, n),
		readyAt: make([]sim.Time, n),
		lru:     make([]uint32, n),
		dirty:   make([]bool, n),
		pf:      make([]uint32, nsets),
		assoc:   assoc,
		mask:    uint64(nsets - 1),
	}
}

// Lines returns the capacity in lines.
func (c *Cache) Lines() int { return len(c.tags) }

// setOf returns the set index of line and the index of its first way.
func (c *Cache) setOf(line uint64) (set, base int) {
	set = int(line & c.mask)
	return set, set * c.assoc
}

// find returns the way of the set holding line, or -1.
func (c *Cache) find(base int, line uint64) int {
	key := line + 1
	for w, t := range c.tags[base : base+c.assoc] {
		if t == key {
			return w
		}
	}
	return -1
}

// Lookup probes for a line. On a hit it updates LRU, optionally sets the
// dirty bit, and returns the line's fill-completion time — a demand access
// arriving before readyAt waits for the in-flight fill rather than getting
// the data instantly. When demand is set, a hit on a prefetch-marked line
// clears the bit and reports it (the credit-return event); prefetcher
// probes pass demand=false and leave the bit alone.
func (c *Cache) Lookup(line uint64, write, demand bool) (hit, wasPrefetch bool, readyAt sim.Time) {
	c.tick++
	c.Stats.Accesses++
	set, base := c.setOf(line)
	w := c.find(base, line)
	if w < 0 {
		c.Stats.Misses++
		return false, false, 0
	}
	i := base + w
	c.lru[i] = c.tick
	if write {
		c.dirty[i] = true
	}
	if bit := uint32(1) << w; demand && c.pf[set]&bit != 0 {
		c.pf[set] &^= bit
		c.Stats.PrefetchUsed++
		return true, true, c.readyAt[i]
	}
	return true, false, c.readyAt[i]
}

// ProbePrefetch reports whether a line is present with its prefetch bit
// set, without touching LRU, statistics, or the bit itself.
func (c *Cache) ProbePrefetch(line uint64) bool {
	set, base := c.setOf(line)
	if c.pf[set] == 0 {
		return false
	}
	w := c.find(base, line)
	return w >= 0 && c.pf[set]&(1<<w) != 0
}

// ClearPrefetch clears a resident line's prefetch bit, counting it as
// used. Returns whether a set bit was cleared. The credit-return path for
// demand hits that are satisfied above the L2 (see DESIGN.md on L1
// shielding at reduced scale).
func (c *Cache) ClearPrefetch(line uint64) bool {
	if c.pf[line&c.mask] == 0 { // the common case; small enough to inline
		return false
	}
	return c.clearPrefetch(line)
}

func (c *Cache) clearPrefetch(line uint64) bool {
	set, base := c.setOf(line)
	w := c.find(base, line)
	if w < 0 || c.pf[set]&(1<<w) == 0 {
		return false
	}
	c.pf[set] &^= 1 << w
	c.Stats.PrefetchUsed++
	return true
}

// Contains probes without touching LRU or statistics.
func (c *Cache) Contains(line uint64) bool {
	_, base := c.setOf(line)
	return c.find(base, line) >= 0
}

// Fill installs a line (after a miss), returning whatever was evicted.
// prefetch marks the new line as prefetcher-installed; readyAt records
// when the fill's data actually arrives. The victim is the set's first
// invalid way, otherwise its least recently used one.
func (c *Cache) Fill(line uint64, dirty, prefetch bool, readyAt sim.Time) Evicted {
	c.tick++
	set, base := c.setOf(line)
	tags, lru := c.tags[base:base+c.assoc], c.lru[base:base+c.assoc]
	victim := 0
	for w, t := range tags {
		if t == 0 {
			victim = w
			break
		}
		if lru[w] < lru[victim] {
			victim = w
		}
	}
	i, bit := base+victim, uint32(1)<<victim
	var ev Evicted
	if tags[victim] != 0 {
		ev = Evicted{Line: tags[victim] - 1, Valid: true, Dirty: c.dirty[i], Prefetch: c.pf[set]&bit != 0}
		c.Stats.Evictions++
		if ev.Dirty {
			c.Stats.Writebacks++
		}
		if ev.Prefetch {
			c.Stats.PrefetchWaste++
		}
	}
	tags[victim] = line + 1
	lru[victim] = c.tick
	c.dirty[i] = dirty
	c.readyAt[i] = readyAt
	if prefetch {
		c.pf[set] |= bit
		c.Stats.PrefetchFills++
	} else {
		c.pf[set] &^= bit
	}
	return ev
}

// MarkPrefetch sets the prefetch bit on a resident line. It returns true
// if the line was present and previously unmarked (i.e. a credit should be
// consumed for it).
func (c *Cache) MarkPrefetch(line uint64) bool {
	set, base := c.setOf(line)
	w := c.find(base, line)
	if w < 0 || c.pf[set]&(1<<w) != 0 {
		return false
	}
	c.pf[set] |= 1 << w
	c.Stats.PrefetchFills++
	return true
}

// CountPrefetchMarked returns how many valid lines currently carry the
// prefetch bit. Read-only scan used by the credit-accounting audit (the
// engine's outstanding-marked counter must equal the lines actually
// marked in its cores' L2s).
func (c *Cache) CountPrefetchMarked() int {
	n := 0
	for _, m := range c.pf {
		n += bits.OnesCount32(m)
	}
	return n
}

// ValidLines appends every valid way's line address to dst and returns
// it, in set-major order (deterministic). Read-only; used by the
// inclusion audit.
func (c *Cache) ValidLines(dst []uint64) []uint64 {
	for _, t := range c.tags {
		if t != 0 {
			dst = append(dst, t-1)
		}
	}
	return dst
}

// Invalidate removes a line (coherence back-invalidation). It reports
// whether the line was present, was dirty, and carried a set prefetch bit.
func (c *Cache) Invalidate(line uint64) (present, dirty, prefetch bool) {
	set, base := c.setOf(line)
	w := c.find(base, line)
	if w < 0 {
		return false, false, false
	}
	i, bit := base+w, uint32(1)<<w
	prefetch = c.pf[set]&bit != 0
	c.tags[i] = 0
	c.pf[set] &^= bit
	return true, c.dirty[i], prefetch
}

// busyUntil models a simple fully-pipelined-but-bandwidth-limited port.
type busyUntil struct {
	next    sim.Time
	service sim.Time
}

// portWindow bounds how far ahead a port reservation may be and still
// queue a lagging request (clock-skew tolerance; see the mesh model).
const portWindow = 32

// reserve books the port at or after t and returns the service start time.
func (b *busyUntil) reserve(t sim.Time) sim.Time {
	if b.next > t && b.next-t <= portWindow {
		t = b.next
	}
	if t+b.service > b.next {
		b.next = t + b.service
	}
	return t
}
