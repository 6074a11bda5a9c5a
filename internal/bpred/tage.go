// Package bpred implements the TAGE branch predictor from Table 3 of the
// paper (64 Kbit, 5-table: a bimodal base plus four partially-tagged
// components with geometrically increasing history lengths), following
// Seznec & Michaud (JILP 2006).
//
// Table 3's history lengths are {5, 15, 44, 130} outcomes, but the
// global history register holds only the newest 64, so the longest
// table folds 64 bits and the effective lengths are {5, 15, 44, 64}.
// Each table's folded history lives in circular shift registers
// updated in O(1) per outcome, as in Seznec & Michaud.
//
// Benchmark kernels feed the predictor the *actual* data-dependent branch
// outcomes their algorithm produces (e.g. "newDist < dist[dst]"), so the
// mispredict rates the core model sees come from genuinely hard-to-predict
// graph-dependent branches rather than a fixed probability.
//
// Determinism contract: prediction is a pure function of the predictor's
// tables and the branch history fed to it — no randomness, no wall-clock
// input — so identical branch streams always produce identical mispredict
// sequences.
package bpred

// Predictor is the TAGE predictor. The zero value is not usable; call New.
type Predictor struct {
	base []int8 // bimodal 2-bit counters

	tables [numTagged][]taggedEntry
	ghist  uint64 // global history (newest outcome in bit 0)

	// fold10[t] and fold11[t] are table t's history window folded to 10
	// and 11 bits: the low win[t] bits of ghist XORed together in
	// width-bit chunks. index uses fold10, tag uses both. out10[t] and
	// out11[t] are win[t] mod 10 and 11, where the bit leaving the window
	// lands after a register's rotate.
	fold10, fold11 [numTagged]uint64
	win            [numTagged]uint
	out10, out11   [numTagged]uint

	useAltOnNA int8 // "use alternate prediction on newly allocated" counter

	Lookups    int64
	Mispredict int64
}

const (
	numTagged   = 4
	baseBits    = 13 // 8K bimodal counters
	taggedBits  = 10 // 1K entries per tagged table
	tagWidth    = 11
	ctrMax      = 3 // 3-bit signed counter range [-4, 3]
	ctrMin      = -4
	usefulMax   = 3
	resetPeriod = 1 << 18 // useful-bit aging period
)

type taggedEntry struct {
	tag    uint16
	ctr    int8
	useful uint8
}

// histLen is Table 3's history length per tagged table (geometric
// ratio ~3), the classic TAGE configuration scaled to a 64Kbit budget.
var histLen = [numTagged]uint{5, 15, 44, 130}

// New returns a predictor with Table 3's history lengths {5, 15, 44,
// 130}. ghist holds 64 outcomes, so the last table folds only those 64
// and the effective lengths are {5, 15, 44, 64}.
func New() *Predictor {
	p := &Predictor{base: make([]int8, 1<<baseBits)}
	for t := range p.tables {
		p.tables[t] = make([]taggedEntry, 1<<taggedBits)
		p.win[t] = min(histLen[t], 64)
		p.out10[t] = p.win[t] % taggedBits
		p.out11[t] = p.win[t] % tagWidth
	}
	return p
}

func (p *Predictor) index(table int, pc uint64) uint64 {
	return (pc ^ (pc >> taggedBits) ^ p.fold10[table]) & (1<<taggedBits - 1)
}

func (p *Predictor) tag(table int, pc uint64) uint16 {
	return uint16((pc ^ p.fold11[table] ^ p.fold10[table]<<1) & (1<<tagWidth - 1))
}

// pushHistory shifts outcome in (0 or 1) into ghist and every fold
// register. A register of width w rotates left by one, which moves
// each window bit to its next chunk position; the bit that leaves the
// window (ghist bit win-1) lands at win mod w and is XORed out, and the
// new outcome is XORed into bit 0.
func (p *Predictor) pushHistory(in uint64) {
	for t := range p.fold10 {
		leaving := p.ghist >> (p.win[t] - 1) & 1
		f := p.fold10[t]
		p.fold10[t] = (f<<1|f>>(taggedBits-1))&(1<<taggedBits-1) ^ leaving<<p.out10[t] ^ in
		f = p.fold11[t]
		p.fold11[t] = (f<<1|f>>(tagWidth-1))&(1<<tagWidth-1) ^ leaving<<p.out11[t] ^ in
	}
	p.ghist = p.ghist<<1 | in
}

// Predict records the outcome of the branch at pc and returns true if the
// predictor would have mispredicted it. The predictor is updated.
func (p *Predictor) Predict(pc uint64, taken bool) (mispredicted bool) {
	p.Lookups++

	// Find provider (longest history matching table) and alternate.
	provider, altProvider := -1, -1
	var provIdx, altIdx uint64
	for t := numTagged - 1; t >= 0; t-- {
		idx := p.index(t, pc)
		if p.tables[t][idx].tag == p.tag(t, pc) {
			if provider < 0 {
				provider, provIdx = t, idx
			} else {
				altProvider, altIdx = t, idx
				break
			}
		}
	}

	basePred := p.base[pc&(1<<baseBits-1)] >= 0
	altPred := basePred
	if altProvider >= 0 {
		altPred = p.tables[altProvider][altIdx].ctr >= 0
	}

	pred := altPred
	newlyAlloc := false
	if provider >= 0 {
		e := &p.tables[provider][provIdx]
		newlyAlloc = e.useful == 0 && (e.ctr == 0 || e.ctr == -1)
		if newlyAlloc && p.useAltOnNA >= 0 {
			pred = altPred
		} else {
			pred = e.ctr >= 0
		}
	}

	mispredicted = pred != taken

	// --- update ---
	if provider >= 0 {
		e := &p.tables[provider][provIdx]
		provPred := e.ctr >= 0
		if newlyAlloc && provPred != altPred {
			if provPred == taken && p.useAltOnNA > -8 {
				p.useAltOnNA--
			} else if provPred != taken && p.useAltOnNA < 7 {
				p.useAltOnNA++
			}
		}
		updateCtr(&e.ctr, taken)
		if provPred != altPred {
			if provPred == taken {
				if e.useful < usefulMax {
					e.useful++
				}
			} else if e.useful > 0 {
				e.useful--
			}
		}
	} else {
		b := &p.base[pc&(1<<baseBits-1)]
		if taken {
			if *b < 1 {
				*b++
			}
		} else if *b > -2 {
			*b--
		}
	}

	// Allocate in a longer table on a mispredict.
	if mispredicted && provider < numTagged-1 {
		start := provider + 1
		allocated := false
		for t := start; t < numTagged; t++ {
			idx := p.index(t, pc)
			if p.tables[t][idx].useful == 0 {
				p.tables[t][idx] = taggedEntry{tag: p.tag(t, pc), ctr: ctrFor(taken)}
				allocated = true
				break
			}
		}
		if !allocated {
			for t := start; t < numTagged; t++ {
				idx := p.index(t, pc)
				if p.tables[t][idx].useful > 0 {
					p.tables[t][idx].useful--
				}
			}
		}
	}

	// Periodic useful-bit aging.
	if p.Lookups%resetPeriod == 0 {
		for t := range p.tables {
			for i := range p.tables[t] {
				p.tables[t][i].useful >>= 1
			}
		}
	}

	p.pushHistory(b2u(taken))
	if mispredicted {
		p.Mispredict++
	}
	return mispredicted
}

func updateCtr(c *int8, taken bool) {
	if taken {
		if *c < ctrMax {
			*c++
		}
	} else if *c > ctrMin {
		*c--
	}
}

func ctrFor(taken bool) int8 {
	if taken {
		return 0
	}
	return -1
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Rate returns the observed misprediction rate.
func (p *Predictor) Rate() float64 {
	if p.Lookups == 0 {
		return 0
	}
	return float64(p.Mispredict) / float64(p.Lookups)
}
