package cpu

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"minnow/internal/prof"
	"minnow/internal/rng"
	"minnow/internal/sim"
	"minnow/internal/stats"
	"minnow/internal/uops"
)

// pinnedProgram is a seeded 50k-micro-op program of every kind, cut into
// batches of 1–400 ops. A batch is mixed, load-heavy or store-heavy, so
// the RS, load-queue and store-queue windows each bind in some of them.
// Most memory ops touch a 4 KiB hot set and one in eight spreads over
// 1 MiB, so accesses hit and miss at every level; dependent loads,
// mostly-taken branches (some waiting on a load) and rare fencing
// atomics occur throughout. Every window ring wraps hundreds of times.
func pinnedProgram() [][]uops.UOp {
	const total = 50_000
	r := rng.New(20)
	var batches [][]uops.UOp
	for n := 0; n < total; {
		size := 1 + r.Intn(400)
		if size > total-n {
			size = total - n
		}
		// Each batch leans on one window: loads, stores, or neither.
		loads, stores := 320, 160
		switch r.Intn(3) {
		case 1:
			loads, stores = 900, 40
		case 2:
			loads, stores = 100, 800
		}
		var tr uops.Trace
		for i := 0; i < size; i++ {
			addr := uint64(0x100000 + r.Intn(64)*64)
			if r.Intn(8) == 0 {
				addr = uint64(0x200000 + r.Intn(1<<14)*64)
			}
			switch k := r.Intn(1024); {
			case k < loads:
				tr.LoadPC(0x500+uint64(r.Intn(4))*4, addr, r.Intn(3) == 0, r.Intn(8) == 0)
			case k < loads+stores:
				tr.Store(addr)
			case k == loads+stores:
				tr.Atomic(addr)
			case k < 960:
				tr.Compute(1 + r.Intn(4))
			default:
				tr.Branch(0x600+uint64(r.Intn(6))*4, r.Intn(16) != 0, r.Intn(16) == 0)
			}
		}
		batches = append(batches, tr.Ops)
		n += size
	}
	return batches
}

// pinnedStat is pinnedProgram's CoreStats with the given cycle breakdown
// (useful, worklist, load-miss, store-miss): the op counts do not depend
// on the window sizes.
func pinnedStat(useful, worklist, loadMiss, storeMiss int64) stats.CoreStats {
	return stats.CoreStats{
		Cycles:     [4]int64{useful, worklist, loadMiss, storeMiss},
		Instrs:     65123,
		Loads:      21645,
		Delinquent: 7274,
		Branches:   3153,
		Mispreds:   223,
		Atomics:    50,
	}
}

// rsOverROB has a reservation station larger than its ROB. Issue is in
// order and the RS ring frees in issue order, so an op issues only
// after every op a full RS back has completed. With RS <= ROB, every op
// a full ROB back has then completed, and so retired, and the ROB never
// binds; with RS > ROB it does.
var rsOverROB = Config{IssueWidth: 4, ROB: 40, RS: 60, LoadQueue: 72, StoreQueue: 56, MispredPen: 15}

// TestRunPinned pins Core.Run's timing on pinnedProgram under the Table 3
// windows, two ScaledROB sizes whose windows are not powers of two, and
// rsOverROB: the final clock, every CoreStats counter, and a digest of
// the clock after each batch. Every third batch runs as a worklist
// operation and the rest as operator bodies, with an idle Advance after
// every seventh. The pins were generated by the modulo-indexed window
// rings Core used before its wrapping cursors, so any change in how the
// windows are indexed shows here as a changed cycle.
func TestRunPinned(t *testing.T) {
	cases := []struct {
		name   string
		cfg    Config
		now    sim.Time
		stat   stats.CoreStats
		clocks uint64
	}{
		{"default", DefaultConfig(), 242944, pinnedStat(8207, 70967, 100532, 63238), 0xade9d60c8f85f3b},
		{"rob200", ScaledROB(200), 256130, pinnedStat(8369, 75299, 106003, 66459), 0x951f572143e6253d},
		{"rob48", ScaledROB(48), 491849, pinnedStat(23565, 140787, 190467, 137030), 0xd4352ce2d55a2fca},
		{"rs-over-rob", rsOverROB, 321605, pinnedStat(11416, 94231, 129106, 86852), 0x8ccc953f1fa607d2},
	}
	prog := pinnedProgram()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := testCore(tc.cfg)
			h := fnv.New64a()
			for i, ops := range prog {
				if i%3 == 2 {
					runIn(c, prof.RegionEnq, ops)
				} else {
					c.Run(ops)
				}
				if i%7 == 6 {
					c.AdvanceIn(prof.RegionIdle, c.Now()+sim.Time(i%50))
				}
				h.Write(binary.LittleEndian.AppendUint64(nil, uint64(c.Now())))
			}
			if c.Now() != tc.now || c.Stat != tc.stat || h.Sum64() != tc.clocks {
				t.Errorf("got now %d, stat %#v, clocks %#x\nwant now %d, stat %#v, clocks %#x",
					c.Now(), c.Stat, h.Sum64(), tc.now, tc.stat, tc.clocks)
			}
		})
	}
}
