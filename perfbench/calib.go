package main

import (
	"runtime"
	"time"
)

// A shared host slows down from minute to minute as its other tenants
// come and go: they lower the cores' clock rate and contend for the
// memory system. The benchmark therefore times a fixed integer loop
// before every set-up build, kernel run and service restart, and around
// the service's closed loop, and reports its end-to-end host times at a
// reference state of the host, where they would have taken
//
//	raw time × (calibrationRefS / median loop time)²
//
// The loop touches no memory, so it sees only the clock; the square
// stands for the memory contention that comes with a slow clock, and is
// the slope measured between the two on the sizing host. README.md gives
// the measurements. The raw times are reported beside them as wall.*
// detail metrics.
const (
	// calibrationSteps is the length of one calibration loop.
	calibrationSteps = 1 << 24
	// calibrationRefS is the loop's time in the reference state: its
	// usual time on the sizing host when nothing else ran there.
	calibrationRefS = 0.0340
)

// calibrationSink keeps the compiler from discarding the loop.
var calibrationSink uint64

// calibrate times one calibration loop: a chain of dependent
// multiply-xorshift steps, so its time follows the core's clock rate and
// nothing this repository's code does.
func calibrate() float64 {
	t0 := time.Now()
	x := uint64(1)
	for i := 0; i < calibrationSteps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= x >> 29
	}
	calibrationSink += x
	return time.Since(t0).Seconds()
}

// clock collects one workload run's calibration samples.
type clock struct{ samples []float64 }

// sample collects garbage, then runs n calibration loops. Collecting
// first keeps the collector from slowing the loop, and keeps the garbage
// of what ran before out of the time and the peak RSS of what runs next.
func (c *clock) sample(n int) {
	runtime.GC()
	for i := 0; i < n; i++ {
		c.samples = append(c.samples, calibrate())
	}
}

// factor converts the run's host times to the reference state.
func (c *clock) factor() float64 {
	k := median(c.samples) / calibrationRefS
	return 1 / (k * k)
}

// record reports the calibration as detail metrics.
func (c *clock) record(r *result) {
	r.setMedian("calib.loop_ms", "ms", scaled(c.samples, 1e3))
	r.set("calib.factor", "ratio", c.factor())
}

func scaled(v []float64, f float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * f
	}
	return out
}
