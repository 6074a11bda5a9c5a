package main

import (
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
