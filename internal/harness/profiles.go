package harness

import "minnow/internal/prof"

// cpiRow folds one profile into the cpistack figure's columns: the
// Fig. 5 cycle breakdown refined into stall cause × serving level.
func cpiRow(name, sched string, p *prof.Profile) []any {
	var useful, branch, store, fence, enq, deq, bp float64
	loadBy := map[prof.Level]float64{}
	for _, l := range p.Leaves() {
		c := float64(l.Cycles)
		switch l.Cause {
		case prof.CauseUseful:
			useful += c
		case prof.CauseBranch:
			branch += c
		case prof.CauseLoad:
			loadBy[l.Level] += c
		case prof.CauseStore:
			store += c
		case prof.CauseFence:
			fence += c
		case prof.CauseEnqueue:
			enq += c
		case prof.CauseDequeue:
			deq += c
		case prof.CauseBackpressure:
			bp += c
		}
	}
	total := float64(p.Total())
	frac := func(v float64) float64 {
		if total == 0 {
			return 0
		}
		return v / total
	}
	loadNear := loadBy[prof.LvlNone] + loadBy[prof.LvlL1] + loadBy[prof.LvlL2]
	return []any{name, sched,
		frac(useful), frac(branch), frac(loadNear), frac(loadBy[prof.LvlL3]),
		frac(loadBy[prof.LvlRemote]), frac(loadBy[prof.LvlDRAM]),
		frac(store), frac(fence), frac(enq), frac(deq), frac(bp)}
}
