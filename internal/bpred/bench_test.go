package bpred

import "testing"

// loopSites is a fixed multi-site branch stream: eight sites visited
// round-robin, site s behaving as the back-edge of a loop with s+2
// iterations (taken every visit but the last of each period). A
// predictor that never learns the loop exits (always "taken") misses
// mean(1/(s+2)) ≈ 23% of them; the trained TAGE misses ~10%.
type loopSites struct {
	visits [8]int
	next   int
}

// branch returns the next site's PC and outcome.
func (l *loopSites) branch() (pc uint64, taken bool) {
	s := l.next
	l.next = (s + 1) % len(l.visits)
	period := s + 2
	taken = l.visits[s]%period != period-1
	l.visits[s]++
	return 0x400 + uint64(s)*4, taken
}

// BenchmarkPredict measures one TAGE prediction and update on the
// loopSites stream after warm-up, then checks the mispredict rate over
// the timed loop plus a fixed window, so even a single-iteration run
// checks a result.
func BenchmarkPredict(b *testing.B) {
	const (
		warm    = 1 << 17 // ~6 full periods of the combined pattern
		window  = 1 << 14
		maxRate = 0.15 // between trained TAGE and always-taken
	)
	p := New()
	var l loopSites
	for i := 0; i < warm; i++ {
		p.Predict(l.branch())
	}
	lookups, misp := p.Lookups, p.Mispredict
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Predict(l.branch())
	}
	b.StopTimer()
	for i := 0; i < window; i++ {
		p.Predict(l.branch())
	}
	rate := float64(p.Mispredict-misp) / float64(p.Lookups-lookups)
	b.ReportMetric(rate, "misp/op")
	if rate > maxRate {
		b.Fatalf("mispredict rate %.4f after %d warm-up predictions, want <= %.2f", rate, warm, maxRate)
	}
}
