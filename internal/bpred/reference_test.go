package bpred

import (
	"testing"

	"minnow/internal/rng"
)

// foldedHistory compresses the low histLen bits of ghist into width bits
// by XORing width-bit chunks: the from-scratch fold the Predictor's
// registers must always equal.
func foldedHistory(ghist uint64, histLen, width uint) uint64 {
	var folded uint64
	remaining := histLen
	h := ghist
	for remaining > 0 {
		take := width
		if take > remaining {
			take = remaining
		}
		folded ^= h & ((1 << take) - 1)
		h >>= take
		remaining -= take
	}
	return folded
}

// refPredictor is the TAGE predictor as it was before the fold
// registers: index and tag re-fold ghist from scratch on every use. It
// is the reference Predictor must match outcome for outcome.
type refPredictor struct {
	base       []int8
	tables     [numTagged][]taggedEntry
	ghist      uint64
	useAltOnNA int8
	Lookups    int64
	Mispredict int64
}

func newRef() *refPredictor {
	p := &refPredictor{base: make([]int8, 1<<baseBits)}
	for i := range p.tables {
		p.tables[i] = make([]taggedEntry, 1<<taggedBits)
	}
	return p
}

func (p *refPredictor) index(table int, pc uint64) uint64 {
	hl := histLen[table]
	return (pc ^ (pc >> taggedBits) ^ foldedHistory(p.ghist, hl, taggedBits)) & (1<<taggedBits - 1)
}

func (p *refPredictor) tag(table int, pc uint64) uint16 {
	hl := histLen[table]
	return uint16((pc ^ foldedHistory(p.ghist, hl, tagWidth) ^ foldedHistory(p.ghist, hl, tagWidth-1)<<1) & (1<<tagWidth - 1))
}

func (p *refPredictor) Predict(pc uint64, taken bool) (mispredicted bool) {
	p.Lookups++
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
	if p.Lookups%resetPeriod == 0 {
		for t := range p.tables {
			for i := range p.tables[t] {
				p.tables[t][i].useful >>= 1
			}
		}
	}
	p.ghist = p.ghist<<1 | b2u(taken)
	if mispredicted {
		p.Mispredict++
	}
	return mispredicted
}

// checkAgainstRef feeds one branch to both predictors and fails on any
// difference in the prediction, the history, or a fold register.
func checkAgainstRef(t *testing.T, i int, p *Predictor, ref *refPredictor, pc uint64, taken bool) {
	t.Helper()
	got, want := p.Predict(pc, taken), ref.Predict(pc, taken)
	if got != want || p.ghist != ref.ghist {
		t.Fatalf("branch %d (pc %#x, taken %v): mispredicted %v, ghist %#x; reference %v, %#x",
			i, pc, taken, got, p.ghist, want, ref.ghist)
	}
	for tb := range p.fold10 {
		f10 := foldedHistory(p.ghist, histLen[tb], taggedBits)
		f11 := foldedHistory(p.ghist, histLen[tb], tagWidth)
		if p.fold10[tb] != f10 || p.fold11[tb] != f11 {
			t.Fatalf("branch %d table %d: folds %#x/%#x, from scratch %#x/%#x",
				i, tb, p.fold10[tb], p.fold11[tb], f10, f11)
		}
	}
}

// checkTables fails unless both predictors end in the same state.
func checkTables(t *testing.T, p *Predictor, ref *refPredictor) {
	t.Helper()
	if p.Lookups != ref.Lookups || p.Mispredict != ref.Mispredict || p.useAltOnNA != ref.useAltOnNA {
		t.Fatalf("counters %d/%d/%d, reference %d/%d/%d",
			p.Lookups, p.Mispredict, p.useAltOnNA, ref.Lookups, ref.Mispredict, ref.useAltOnNA)
	}
	for i := range p.base {
		if p.base[i] != ref.base[i] {
			t.Fatalf("base[%d] = %d, reference %d", i, p.base[i], ref.base[i])
		}
	}
	for tb := range p.tables {
		for i := range p.tables[tb] {
			if p.tables[tb][i] != ref.tables[tb][i] {
				t.Fatalf("table %d entry %d = %+v, reference %+v", tb, i, p.tables[tb][i], ref.tables[tb][i])
			}
		}
	}
}

// TestPredictorMatchesReference drives the fold-register predictor and
// the from-scratch reference with the same seeded multi-site streams:
// loop back-edges of several periods, biased coins, and branches that
// repeat an outcome from up to 100 branches back (past the 64-bit
// history). The stream runs past one useful-bit aging period.
func TestPredictorMatchesReference(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		r := rng.New(seed)
		p, ref := New(), newRef()
		var past [128]bool
		visits := make([]int, 16)
		for i := 0; i < resetPeriod+5000; i++ {
			site := r.Intn(len(visits))
			var taken bool
			switch site % 4 {
			case 0: // loop back-edge with period site/4+2
				period := site/4 + 2
				taken = visits[site]%period != period-1
			case 1: // biased coin
				taken = r.Intn(10) < 8
			case 2: // correlated with an old outcome
				taken = past[(i-(site*7)%100+len(past))%len(past)]
			default: // fair coin
				taken = r.Intn(2) == 0
			}
			visits[site]++
			past[i%len(past)] = taken
			checkAgainstRef(t, i, p, ref, 0x400+uint64(site)*4+uint64(r.Intn(2))<<12, taken)
		}
		checkTables(t, p, ref)
	}
}

// FuzzPredictor checks arbitrary branch streams against the reference:
// each input byte picks one of 32 sites (low five bits) and an outcome
// (bit 5), and the first 4096 bytes are replayed until at least 4096
// branches ran.
func FuzzPredictor(f *testing.F) {
	f.Add([]byte{0x20, 0x00, 0x21, 0x01})
	f.Add([]byte{0x3f, 0x3f, 0x3f, 0x1f, 0x05})
	f.Add([]byte("TAGE folded history"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		data = data[:min(len(data), 4096)]
		p, ref := New(), newRef()
		for i := 0; i < 4096 || i%len(data) != 0; i++ {
			b := data[i%len(data)]
			checkAgainstRef(t, i, p, ref, 0x800+uint64(b&31)*4, b&32 != 0)
		}
		checkTables(t, p, ref)
	})
}
