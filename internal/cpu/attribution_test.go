package cpu

import (
	"testing"

	"minnow/internal/obs"
	"minnow/internal/prof"
	"minnow/internal/stats"
	"minnow/internal/uops"
)

// noStall marks a gap too short to leave a timeline stall instant.
const noStall = obs.NumKinds

// runIn runs ops on c inside region r.
func runIn(c *Core, r prof.Region, ops []uops.UOp) {
	prev, cur := c.EnterRegion(r)
	c.Run(ops)
	c.RestoreRegion(prev, cur)
}

// TestAttributionTable pins the one classification behind every charged
// cycle. For each region and op shape it runs the shape on a fresh core
// with a timeline and a profiler attached, and checks three things: the
// flat bucket the cycles land in, the cause of the one profiler leaf
// they add, and the kind of the timeline stall instant they leave. In
// the operator region the micro-op decides; in a worklist region the
// region decides, whatever the micro-op.
func TestAttributionTable(t *testing.T) {
	const hot, cold = 0x100000, 0x200000
	shapes := []struct {
		name string
		warm func(*uops.Trace) // runs in the operator region first
		op   func(*uops.Trace) // nil: Advance by 100 cycles
		// bucket, cause and stall are the operator-region outcome.
		bucket stats.CycleCat
		cause  prof.Cause
		stall  obs.Kind
		// wlStall is the stall kind in every worklist region.
		wlStall obs.Kind
	}{
		{"compute", nil, func(tr *uops.Trace) { tr.Compute(400) },
			stats.CatUseful, prof.CauseUseful, obs.EvStallDep, obs.EvStallWorklist},
		{"l1-load", func(tr *uops.Trace) { tr.Load(hot, false, false) }, func(tr *uops.Trace) { tr.Load(hot, false, false) },
			stats.CatUseful, prof.CauseLoad, noStall, noStall},
		{"dram-load", nil, func(tr *uops.Trace) { tr.Load(cold, false, false) },
			stats.CatLoadMiss, prof.CauseLoad, obs.EvStallLoad, obs.EvStallWorklist},
		{"dram-store", nil, func(tr *uops.Trace) { tr.Store(cold) },
			stats.CatStoreMiss, prof.CauseStore, obs.EvStallStore, obs.EvStallWorklist},
		{"atomic", nil, func(tr *uops.Trace) { tr.Atomic(cold) },
			stats.CatStoreMiss, prof.CauseFence, obs.EvStallFence, obs.EvStallWorklist},
		// A cold predictor guesses taken, so a not-taken branch
		// mispredicts; its own retire gap is one cycle.
		{"mispredict", nil, func(tr *uops.Trace) { tr.Branch(0x600, false, false) },
			stats.CatUseful, prof.CauseBranch, noStall, noStall},
		{"advance", nil, nil,
			stats.CatUseful, prof.CauseUseful, noStall, obs.EvStallWorklist},
	}
	regions := []struct {
		r     prof.Region
		cause prof.Cause // the worklist cause; unused for RegionOp
	}{
		{prof.RegionOp, 0},
		{prof.RegionEnq, prof.CauseEnqueue},
		{prof.RegionDeq, prof.CauseDequeue},
		{prof.RegionIdle, prof.CauseDequeue},
		{prof.RegionBackpressure, prof.CauseBackpressure},
	}
	for _, reg := range regions {
		for _, sh := range shapes {
			t.Run(reg.r.String()+"/"+sh.name, func(t *testing.T) {
				bucket, cause, stall := sh.bucket, sh.cause, sh.stall
				if reg.r != prof.RegionOp {
					bucket, cause, stall = stats.CatWorklist, reg.cause, sh.wlStall
				}
				c := testCore(DefaultConfig())
				tl := obs.NewTimeline()
				c.TL, c.Track = tl, tl.AddTrack("core")
				p := prof.New("t", 1)
				c.Prof = p.Core(0)
				var tr uops.Trace
				if sh.warm != nil {
					sh.warm(&tr)
					c.Run(tr.Ops)
					tr.Reset()
				}
				start, before, leaves, kinds := c.Now(), c.Stat.Cycles, leafCycles(p), stallCounts(tl)

				if sh.op == nil {
					c.AdvanceIn(reg.r, c.Now()+100)
				} else {
					sh.op(&tr)
					runIn(c, reg.r, tr.Ops)
				}

				gap := int64(c.Now() - start)
				if gap <= 0 {
					t.Fatal("clock did not advance")
				}
				for cat := range c.Stat.Cycles {
					want := int64(0)
					if stats.CycleCat(cat) == bucket {
						want = gap
					}
					if got := c.Stat.Cycles[cat] - before[cat]; got != want {
						t.Errorf("bucket %s charged %d, want %d", stats.CycleCat(cat), got, want)
					}
				}
				var added []prof.Leaf
				for l, v := range leafCycles(p) {
					if d := v - leaves[l]; d != 0 {
						l.Cycles = d
						added = append(added, l)
					}
				}
				if len(added) != 1 || added[0].Cause != cause || added[0].Cycles != gap {
					t.Errorf("leaves added %+v, want one of cause %s and %d cycles", added, cause, gap)
				}
				got := noStall
				for k, n := range stallCounts(tl) {
					if n != kinds[k] {
						if got != noStall {
							t.Fatal("more than one stall instant")
						}
						got = obs.Kind(k)
					}
				}
				if got != stall {
					t.Errorf("stall instant %v, want %v", got, stall)
				}
			})
		}
	}
}

// leafCycles returns the profile's leaves keyed by everything but their
// cycles.
func leafCycles(p *prof.Profile) map[prof.Leaf]int64 {
	m := make(map[prof.Leaf]int64)
	for _, l := range p.CoreLeaves(0) {
		v := l.Cycles
		l.Cycles = 0
		m[l] = v
	}
	return m
}

// stallCounts returns how many events of each kind the timeline holds.
func stallCounts(tl *obs.Timeline) [obs.NumKinds]int64 {
	var n [obs.NumKinds]int64
	for k := range n {
		n[k] = tl.Count(obs.Kind(k))
	}
	return n
}
