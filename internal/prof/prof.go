// Package prof is the hierarchical cycle-attribution profiler: it
// refines every cycle the core model attributes — retire-time stalls and
// idle waits alike — into a top-down tree of stall cause × serving level
// × prefetch outcome, keyed by the attribution *site* (a static micro-op
// PC when the kernel assigned one, or the micro-op's index within the
// operator application). The tree renders as folded stacks for standard
// flamegraph tooling (folded.go) and as a gzipped pprof protobuf of
// simulated cycles for `go tool pprof` (pprof.go).
//
// There is one classification, made by the core model: each retire gap
// or idle wait gets one Cause (with the level and prefetch outcome of
// the access behind it), and the flat stats.CycleCat breakdown is folded
// from that cause by Coarse, the only cause-to-bucket map. The four
// classic Fig. 5 buckets (useful / worklist / load-miss / store-miss)
// are therefore the tree folded by Leaf.Coarse, exactly.
//
// Conservation contract: the core model only advances its local clock
// through Run retire gaps and Advance idle waits, and both paths feed
// the profiler the exact cycle delta they charge to the flat counters.
// Per core, the sum of all leaves therefore equals the core's final
// clock (its share of wall cycles) — enforced by the harness
// cycle-conservation test.
//
// Determinism contract: the profiler observes only. Add never advances a
// clock, wakes an actor, or mutates simulation state, so enabling
// profiling cannot change wall cycles, step counts, or any RunSummary
// field; every rendering (folded stacks, pprof bytes, the CycleStack
// tree) is byte-deterministic for a given run.
package prof

import (
	"fmt"
	"sort"
)

// Cause is the top split of the attribution tree: why the cycles were
// spent (or lost).
type Cause uint8

const (
	// CauseUseful is operator-body progress not attributable to any
	// stall: front-end issue, compute, and memory time hidden under the
	// in-order retire window.
	CauseUseful Cause = iota
	// CauseLoad is retire time behind a demand load.
	CauseLoad
	// CauseStore is retire time behind a demand store.
	CauseStore
	// CauseFence is retire time behind an atomic read-modify-write and
	// its x86-TSO fence serialization.
	CauseFence
	// CauseBranch is a branch-mispredict pipeline refill.
	CauseBranch
	// CauseEnqueue is time inside a worklist enqueue operation (software
	// worklist micro-ops or the Minnow minnow_enqueue latency).
	CauseEnqueue
	// CauseDequeue is time inside a worklist dequeue operation,
	// including idle spins waiting for work to appear.
	CauseDequeue
	// CauseBackpressure is time a Minnow enqueue stalled the core beyond
	// the nominal local-queue latency while the engine's spill path
	// drained (§5.1's backpressure case).
	CauseBackpressure
	// NumCauses bounds the Cause space.
	NumCauses
)

// String returns the frame label used in folded stacks and pprof.
func (c Cause) String() string {
	switch c {
	case CauseUseful:
		return "useful"
	case CauseLoad:
		return "load"
	case CauseStore:
		return "store"
	case CauseFence:
		return "fence"
	case CauseBranch:
		return "branch-mispredict"
	case CauseEnqueue:
		return "worklist-enqueue"
	case CauseDequeue:
		return "worklist-dequeue"
	case CauseBackpressure:
		return "engine-backpressure"
	}
	return fmt.Sprintf("cause(%d)", uint8(c))
}

// Level is the second split: which level of the hierarchy served the
// memory access behind the cycles, when there was one.
type Level uint8

const (
	// LvlNone marks cycles with no memory access behind them (compute,
	// branch refills, worklist waits).
	LvlNone Level = iota
	// LvlL1 is an L1D hit.
	LvlL1
	// LvlL2 is an L2 hit.
	LvlL2
	// LvlL3 is an L3-bank hit.
	LvlL3
	// LvlRemote is data forwarded from a remote L2's modified copy over
	// the NoC (the 3-hop dirty-owner path).
	LvlRemote
	// LvlDRAM is a full miss served by a DRAM channel.
	LvlDRAM
	// NumLevels bounds the Level space.
	NumLevels
)

// String returns the frame label used in folded stacks and pprof.
func (l Level) String() string {
	switch l {
	case LvlNone:
		return "no-mem"
	case LvlL1:
		return "L1"
	case LvlL2:
		return "L2"
	case LvlL3:
		return "L3"
	case LvlRemote:
		return "remote-L2"
	case LvlDRAM:
		return "DRAM"
	}
	return fmt.Sprintf("level(%d)", uint8(l))
}

// Outcome is the third split: how worklist-directed (or hardware)
// prefetching interacted with the access behind the cycles.
type Outcome uint8

const (
	// OutNone marks cycles whose access had no prefetch involvement and
	// hit in the private levels anyway.
	OutNone Outcome = iota
	// OutCovered marks a demand access that consumed a prefetched line
	// resident in the L2 (or shielded behind an L1 hit) — the prefetch
	// fully covered the miss.
	OutCovered
	// OutLate marks a demand access that hit a prefetched line whose
	// fill was still in flight: the prefetch was issued but late, so it
	// covered the miss only partially.
	OutLate
	// OutUncovered marks a demand access that missed past the L2 with no
	// prefetch cover at all.
	OutUncovered
	// NumOutcomes bounds the Outcome space.
	NumOutcomes
)

// String returns the frame label used in folded stacks and pprof.
func (o Outcome) String() string {
	switch o {
	case OutNone:
		return "no-prefetch"
	case OutCovered:
		return "covered"
	case OutLate:
		return "late-partial"
	case OutUncovered:
		return "uncovered"
	}
	return fmt.Sprintf("outcome(%d)", uint8(o))
}

// Region names the code region a core is executing on behalf of the
// framework; it scopes attribution sites and decides the cause, and so
// the flat cycle category, of worklist-region cycles.
type Region uint8

const (
	// RegionOp is the benchmark operator body.
	RegionOp Region = iota
	// RegionEnq is a worklist enqueue operation.
	RegionEnq
	// RegionDeq is a worklist dequeue operation.
	RegionDeq
	// RegionIdle is the idle backoff spin between failed dequeues.
	RegionIdle
	// RegionBackpressure is a Minnow enqueue blocked on spill-path
	// drain beyond the nominal local-queue latency.
	RegionBackpressure
	// NumRegions bounds the Region space.
	NumRegions
)

// String returns the site-label prefix for the region.
func (r Region) String() string {
	switch r {
	case RegionOp:
		return "apply"
	case RegionEnq:
		return "enqueue"
	case RegionDeq:
		return "dequeue"
	case RegionIdle:
		return "idle"
	case RegionBackpressure:
		return "backpressure"
	}
	return fmt.Sprintf("region(%d)", uint8(r))
}

// RegionCause returns the worklist cause a region implies, when it
// implies one: cycles spent inside enqueue/dequeue/idle/backpressure
// regions have the region's cause whatever micro-op consumed them. ok
// is false for RegionOp, where the cause follows the micro-op instead
// (and a wait is CauseUseful).
func RegionCause(r Region) (Cause, bool) {
	switch r {
	case RegionEnq:
		return CauseEnqueue, true
	case RegionDeq, RegionIdle:
		return CauseDequeue, true
	case RegionBackpressure:
		return CauseBackpressure, true
	}
	return CauseUseful, false
}

// ClassifyMem maps one memory-access result onto the serving-level and
// prefetch-outcome dimensions. level is the mem.Result encoding (1=L1,
// 2=L2, 3=L3, 4=DRAM); remote marks the dirty-remote-owner forward,
// usedPF a demand access that consumed a prefetch-marked line, and
// pfLate one whose prefetched line was still in flight.
func ClassifyMem(level uint8, remote, usedPF, pfLate bool) (Level, Outcome) {
	var lvl Level
	switch level {
	case 1:
		lvl = LvlL1
	case 2:
		lvl = LvlL2
	case 3:
		lvl = LvlL3
		if remote {
			lvl = LvlRemote
		}
	case 4:
		lvl = LvlDRAM
	default:
		lvl = LvlNone
	}
	out := OutNone
	switch {
	case usedPF && pfLate:
		out = OutLate
	case usedPF:
		out = OutCovered
	case lvl >= LvlL3:
		out = OutUncovered
	}
	return lvl, out
}

// Site identifies one attribution site, pre-packed for the leaf key: the
// region, the site flavor (index / PC / wait), and the index or PC
// value. Build sites with IndexSite, PCSite, or WaitSite.
type Site uint64

// Site/key bit layout (low to high): outcome 0-3, level 4-7, cause 8-11,
// region 12-15, site flavor 16-17, value 18-49.
const (
	siteRegionShift = 12
	siteFlavorShift = 16
	siteValueShift  = 18

	flavorIndex = 0
	flavorPC    = 1
	flavorWait  = 2

	// maxSiteIndex caps index-flavored sites; deeper micro-op indices
	// collapse into one overflow site so pathological operators cannot
	// blow up the leaf map.
	maxSiteIndex = 1023
)

// IndexSite is the site of the idx-th micro-op within the current
// region (operator application or worklist operation). Indices beyond
// maxSiteIndex collapse into one overflow site.
func IndexSite(r Region, idx int) Site {
	if idx > maxSiteIndex || idx < 0 {
		idx = maxSiteIndex
	}
	return Site(uint64(r)<<siteRegionShift |
		flavorIndex<<siteFlavorShift |
		uint64(idx)<<siteValueShift)
}

// PCSite is the site of a micro-op carrying a static PC (the kernels'
// named load and branch sites); it aggregates the site across loop
// iterations and tasks, which is what makes per-site flamegraphs
// readable.
func PCSite(r Region, pc uint64) Site {
	return Site(uint64(r)<<siteRegionShift |
		flavorPC<<siteFlavorShift |
		(pc&0xffffffff)<<siteValueShift)
}

// WaitSite is the blocking-wait site of a region: Advance-style idle
// time (a blocked Minnow enqueue/dequeue, the idle backoff spin, spill
// backpressure) rather than any particular micro-op.
func WaitSite(r Region) Site {
	return Site(uint64(r)<<siteRegionShift | flavorWait<<siteFlavorShift)
}

// CoreProf collects one core's leaves. The zero value is not usable;
// obtain cores from Profile.Core. All methods are nil-receiver-safe so a
// disabled profiler costs one branch per attribution site.
type CoreProf struct {
	leaves map[uint64]int64
}

// Add charges cycles to the leaf (site, cause, lvl, out). It is called
// from the core model's retire-gap and idle-wait attribution paths with
// exactly the delta charged to the flat cycle counters.
func (c *CoreProf) Add(s Site, cause Cause, lvl Level, out Outcome, cycles int64) {
	if c == nil || cycles <= 0 {
		return
	}
	key := uint64(s) | uint64(cause)<<8 | uint64(lvl)<<4 | uint64(out)
	c.leaves[key] += cycles
}

// Total returns the cycles summed over the core's leaves (conservation
// tests compare it against the flat per-core totals).
func (c *CoreProf) Total() int64 {
	if c == nil {
		return 0
	}
	var t int64
	for _, v := range c.leaves {
		t += v
	}
	return t
}

// Leaf is one decoded attribution-tree leaf.
type Leaf struct {
	// Region is the framework region the cycles were spent in.
	Region Region
	// PC is the static micro-op site, when the site is PC-flavored
	// (0 otherwise).
	PC uint64
	// Index is the micro-op index within the region, when the site is
	// index-flavored (-1 otherwise). Index == maxSiteIndex aggregates
	// all deeper micro-ops.
	Index int
	// Wait marks a blocking-wait site (Advance time) rather than a
	// micro-op retire gap.
	Wait bool
	// Cause is the attribution cause.
	Cause Cause
	// Level is the serving level of the access behind the cycles.
	Level Level
	// Outcome is the prefetch outcome of that access.
	Outcome Outcome
	// Cycles is the simulated-cycle weight.
	Cycles int64
}

// decodeLeaf unpacks one map entry.
func decodeLeaf(key uint64, cycles int64) Leaf {
	l := Leaf{
		Outcome: Outcome(key & 0xf),
		Level:   Level(key >> 4 & 0xf),
		Cause:   Cause(key >> 8 & 0xf),
		Region:  Region(key >> siteRegionShift & 0xf),
		Index:   -1,
		Cycles:  cycles,
	}
	val := key >> siteValueShift
	switch key >> siteFlavorShift & 0x3 {
	case flavorIndex:
		l.Index = int(val)
	case flavorPC:
		l.PC = val
	case flavorWait:
		l.Wait = true
	}
	return l
}

// Coarse folds a cause, and the level that served the access behind
// it, onto its flat stats.CycleCat bucket: 0 useful, 1 worklist,
// 2 load-miss, 3 store-miss (the stats package's CycleCat order, which
// this package cannot import). It is the only cause-to-bucket map: the
// cpu model charges its flat counters through it, and Leaf.Coarse
// calls it.
func Coarse(cause Cause, lvl Level) int {
	switch cause {
	case CauseEnqueue, CauseDequeue, CauseBackpressure:
		return 1
	case CauseLoad:
		if lvl >= LvlL3 {
			return 2
		}
	case CauseStore:
		if lvl >= LvlL3 {
			return 3
		}
	case CauseFence:
		return 3
	}
	return 0
}

// Coarse returns the flat bucket the leaf's cycles were counted under.
func (l Leaf) Coarse() int { return Coarse(l.Cause, l.Level) }

// SiteLabel renders the leaf's site frame. pcLabel, when non-nil, names
// PC-flavored sites (the kernels' static-site vocabulary); nil falls
// back to the raw PC.
func (l Leaf) SiteLabel(pcLabel func(pc uint64) string) string {
	switch {
	case l.Wait:
		return l.Region.String() + ".wait"
	case l.PC != 0:
		if pcLabel != nil {
			return l.Region.String() + "@" + pcLabel(l.PC)
		}
		return fmt.Sprintf("%s@pc%#x", l.Region, l.PC)
	case l.Index >= maxSiteIndex:
		return fmt.Sprintf("%s#%d+", l.Region, maxSiteIndex)
	default:
		return fmt.Sprintf("%s#%d", l.Region, l.Index)
	}
}

// Profile is one run's attribution profile: per-core leaf maps plus the
// metadata needed to render them.
type Profile struct {
	// Bench is the benchmark name, used as the tree root frame.
	Bench string
	// PCLabel, when non-nil, names PC-flavored sites (the harness wires
	// the kernels' static-site vocabulary here).
	PCLabel func(pc uint64) string

	cores []*CoreProf
}

// New builds an empty profile for the given core count.
func New(bench string, cores int) *Profile {
	p := &Profile{Bench: bench, cores: make([]*CoreProf, cores)}
	for i := range p.cores {
		p.cores[i] = &CoreProf{leaves: make(map[uint64]int64)}
	}
	return p
}

// Core returns core i's collector (attached to the cpu model by the
// harness).
func (p *Profile) Core(i int) *CoreProf { return p.cores[i] }

// sortedLeaves decodes and sorts one leaf map by packed key.
func sortedLeaves(m map[uint64]int64) []Leaf {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]Leaf, len(keys))
	for i, k := range keys {
		out[i] = decodeLeaf(k, m[k])
	}
	return out
}

// CoreLeaves returns core i's leaves in deterministic order
// (conservation tests).
func (p *Profile) CoreLeaves(i int) []Leaf { return sortedLeaves(p.cores[i].leaves) }

// Leaves returns the profile's leaves merged across cores, in
// deterministic order.
func (p *Profile) Leaves() []Leaf {
	merged := make(map[uint64]int64)
	for _, c := range p.cores {
		for k, v := range c.leaves {
			merged[k] += v
		}
	}
	return sortedLeaves(merged)
}

// Total returns the cycles summed over every core's leaves.
func (p *Profile) Total() int64 {
	var t int64
	for _, c := range p.cores {
		t += c.Total()
	}
	return t
}

// CoarseBuckets folds the merged tree back onto the four flat
// stats.CycleCat buckets (useful / worklist / load-miss / store-miss).
func (p *Profile) CoarseBuckets() [4]int64 {
	var out [4]int64
	for _, l := range p.Leaves() {
		out[l.Coarse()] += l.Cycles
	}
	return out
}

// frames renders one leaf's stack root-to-leaf: bench, cause, then the
// level and outcome dimensions when informative, then the site.
func (p *Profile) frames(l Leaf) []string {
	fr := make([]string, 0, 5)
	fr = append(fr, p.Bench, l.Cause.String())
	if l.Level != LvlNone {
		fr = append(fr, l.Level.String())
	}
	if l.Outcome != OutNone {
		fr = append(fr, l.Outcome.String())
	}
	return append(fr, l.SiteLabel(p.PCLabel))
}

// CycleStack is one node of the rendered top-down attribution tree:
// bench → cause → serving level → prefetch outcome → site. A node's
// Cycles is the sum over every leaf below it, so siblings at each depth
// partition their parent — the property the Fig. 5 cpistack figure and
// the conservation test rely on.
type CycleStack struct {
	// Label is the node's frame label.
	Label string
	// Cycles is the simulated cycles attributed at or below this node.
	Cycles int64
	// Kids are the child nodes, in deterministic order.
	Kids []*CycleStack
}

// Stack builds the merged attribution tree.
func (p *Profile) Stack() *CycleStack {
	root := &CycleStack{Label: p.Bench}
	for _, l := range p.Leaves() {
		root.Cycles += l.Cycles
		node := root
		for _, f := range p.frames(l)[1:] {
			var kid *CycleStack
			for _, k := range node.Kids {
				if k.Label == f {
					kid = k
					break
				}
			}
			if kid == nil {
				kid = &CycleStack{Label: f}
				node.Kids = append(node.Kids, kid)
			}
			kid.Cycles += l.Cycles
			node = kid
		}
	}
	return root
}
