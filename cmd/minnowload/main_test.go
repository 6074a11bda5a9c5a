package main

import (
	"math"
	"testing"
	"time"
)

// TestPercentilesNearestRank pins the client report to the exact
// nearest-rank definition RunSummary latency uses: over ten samples the
// p95 is the tenth smallest, not an index-interpolated ninth.
func TestPercentilesNearestRank(t *testing.T) {
	var ds []time.Duration
	for i := 10; i >= 1; i-- {
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	q := percentiles(ds, 50, 95, 99)
	want := []time.Duration{5 * time.Millisecond, 10 * time.Millisecond, 10 * time.Millisecond}
	for i := range want {
		if q[i] != want[i] {
			t.Fatalf("percentiles = %v, want %v", q, want)
		}
	}
	if q := percentiles(nil, 99); q[0] != 0 {
		t.Fatalf("empty p99 = %v, want 0", q[0])
	}
}

// TestOptionsCheck pins the flag values minnowload refuses (exit 2)
// instead of panicking or passing a run that submitted nothing.
func TestOptionsCheck(t *testing.T) {
	ok := options{clients: 4, seeds: 2, dur: time.Second, wait: time.Minute}
	for _, c := range []struct {
		name  string
		edit  func(*options)
		valid bool
	}{
		{"defaults", func(*options) {}, true},
		{"open loop", func(o *options) { o.rate = 1e9 }, true},
		{"cancel churn", func(o *options) { o.cancelFrac = 1 }, true},
		{"seeds 0", func(o *options) { o.seeds = 0 }, false},
		{"clients 0", func(o *options) { o.clients = 0 }, false},
		{"rate 1e10", func(o *options) { o.rate = 1e10 }, false},
		{"negative rate", func(o *options) { o.rate = -1 }, false},
		{"NaN rate", func(o *options) { o.rate = math.NaN() }, false},
		{"cancel-frac above 1", func(o *options) { o.cancelFrac = 1.5 }, false},
		{"negative cancel-frac", func(o *options) { o.cancelFrac = -0.1 }, false},
		{"duration 0", func(o *options) { o.dur = 0 }, false},
		{"wait 0", func(o *options) { o.wait = 0 }, false},
	} {
		o := ok
		c.edit(&o)
		if err := o.check(); (err == nil) != c.valid {
			t.Errorf("%s: check() = %v, want valid=%v", c.name, err, c.valid)
		}
	}
}
