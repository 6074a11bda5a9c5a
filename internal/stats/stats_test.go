package stats

import (
	"math"
	"strings"
	"testing"
)

func TestCycleCatString(t *testing.T) {
	cases := map[CycleCat]string{
		CatUseful:    "useful",
		CatWorklist:  "worklist",
		CatLoadMiss:  "load-miss",
		CatStoreMiss: "store-miss",
	}
	for c, want := range cases {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), want)
		}
	}
}

func TestBreakdownSumsToOne(t *testing.T) {
	r := &RunSummary{Cores: []CoreStats{{Cycles: [4]int64{10, 20, 30, 40}}, {Cycles: [4]int64{5, 5, 5, 5}}}}
	bd := r.Breakdown()
	var sum float64
	for _, f := range bd {
		sum += f
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("breakdown sums to %v", sum)
	}
	if math.Abs(bd[0]-15.0/120) > 1e-12 {
		t.Fatalf("useful fraction %v", bd[0])
	}
}

func TestBreakdownEmpty(t *testing.T) {
	r := &RunSummary{}
	bd := r.Breakdown()
	for _, f := range bd {
		if f != 0 {
			t.Fatal("empty run has nonzero breakdown")
		}
	}
}

func TestL2MPKI(t *testing.T) {
	r := &RunSummary{
		Cores: []CoreStats{{Instrs: 2000}},
		L2:    CacheStats{Misses: 50},
	}
	if got := r.L2MPKI(); got != 25 {
		t.Fatalf("MPKI = %v, want 25", got)
	}
	empty := &RunSummary{}
	if empty.L2MPKI() != 0 {
		t.Fatal("empty run MPKI != 0")
	}
}

func TestDelinquentDensity(t *testing.T) {
	r := &RunSummary{Cores: []CoreStats{{Loads: 100, Delinquent: 10}, {Loads: 100, Delinquent: 30}}}
	if got := r.DelinquentDensity(); got != 0.2 {
		t.Fatalf("density %v, want 0.2", got)
	}
}

func TestEfficiency(t *testing.T) {
	c := CacheStats{PrefetchFills: 100, PrefetchUsed: 98}
	if c.Efficiency() != 0.98 {
		t.Fatalf("efficiency %v", c.Efficiency())
	}
	empty := CacheStats{}
	if empty.Efficiency() != 1 {
		t.Fatal("no-prefetch efficiency should be 1")
	}
}

func TestAvgOpCycles(t *testing.T) {
	r := &RunSummary{Cores: []CoreStats{{EnqOps: 4, EnqCycles: 100, DeqOps: 2, DeqCycles: 30}}}
	if r.AvgEnqCycles() != 25 {
		t.Fatalf("enq %v", r.AvgEnqCycles())
	}
	if r.AvgDeqCycles() != 15 {
		t.Fatalf("deq %v", r.AvgDeqCycles())
	}
	empty := &RunSummary{}
	if empty.AvgEnqCycles() != 0 || empty.AvgDeqCycles() != 0 {
		t.Fatal("empty run op cycles nonzero")
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "demo", Headers: []string{"a", "bbb"}}
	tb.AddRow("x", 1.5)
	tb.AddRow("long-cell", 1234.5678)
	s := tb.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "long-cell") {
		t.Fatalf("render missing content:\n%s", s)
	}
	if !strings.Contains(s, "1.50") {
		t.Fatalf("float not formatted:\n%s", s)
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "a,bbb\n") {
		t.Fatalf("csv header wrong: %q", csv)
	}
	if !strings.Contains(csv, "x,1.50") {
		t.Fatalf("csv row wrong: %q", csv)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		0.1234:  "0.123",
		5.678:   "5.68",
		56.78:   "56.8",
		5678.9:  "5679",
		-5.678:  "-5.68",
		-0.0042: "-0.004",
	}
	for v, want := range cases {
		if got := FormatFloat(v); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("geomean %v, want 4", g)
	}
	if g := GeoMean([]float64{3, 0, -1}); math.Abs(g-3) > 1e-12 {
		t.Fatalf("geomean with skips %v, want 3", g)
	}
	if GeoMean(nil) != 0 {
		t.Fatal("empty geomean should be 0")
	}
}

// TestGeoMeanExtremeRange is the overflow regression: a large campaign of
// values far from 1 must not saturate the running aggregate. A raw
// product over 10k values around 1e±150 over/underflows float64 after a
// handful of elements; the log-sum form stays exact.
func TestGeoMeanExtremeRange(t *testing.T) {
	// Alternating 1e150 and 1e-150: geomean is exactly 1.
	vals := make([]float64, 10000)
	for i := range vals {
		if i%2 == 0 {
			vals[i] = 1e150
		} else {
			vals[i] = 1e-150
		}
	}
	if g := GeoMean(vals); math.Abs(g-1) > 1e-9 {
		t.Fatalf("balanced extreme geomean %v, want 1", g)
	}
	// All-huge: product overflows to +Inf immediately, but the geomean of
	// ten thousand copies of 1e150 is 1e150.
	for i := range vals {
		vals[i] = 1e150
	}
	if g := GeoMean(vals); math.IsInf(g, 0) || math.Abs(g/1e150-1) > 1e-9 {
		t.Fatalf("huge geomean %v, want 1e150", g)
	}
	// All-tiny: product underflows to 0.
	for i := range vals {
		vals[i] = 1e-150
	}
	if g := GeoMean(vals); g == 0 || math.Abs(g/1e-150-1) > 1e-9 {
		t.Fatalf("tiny geomean %v, want 1e-150", g)
	}
}

func TestRunSummaryHash(t *testing.T) {
	mk := func() *Run {
		r := &Run{RunSummary: RunSummary{Name: "SSSP", Threads: 2, WallCycles: 12345, SimSteps: 678, WorkItems: 42}}
		r.Cores = []CoreStats{{Instrs: 100, Loads: 40}, {Instrs: 90, Loads: 33}}
		r.L2 = CacheStats{Accesses: 10, Misses: 3, Writebacks: 2}
		r.Engines = []EngineStats{{Prefetches: 7}}
		return r
	}
	a, b := mk(), mk()
	if a.Summary().Hash() != b.Summary().Hash() {
		t.Fatal("identical runs hash differently")
	}
	b.Cores[1].Loads++
	if a.Summary().Hash() == b.Summary().Hash() {
		t.Fatal("per-core stat change not reflected in hash")
	}
	c := mk()
	c.L2.Writebacks++
	if a.Summary().Hash() == c.Summary().Hash() {
		t.Fatal("writeback change not reflected in hash")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(10, 1, 100) // unsorted on purpose
	for _, v := range []int64{0, 1, 5, 10, 50, 100, 1000} {
		h.Add(v)
	}
	// Bounds sorted: 1, 10, 100; buckets: <=1: {0,1}=2, <=10: {5,10}=2,
	// <=100: {50,100}=2, overflow: {1000}=1.
	want := []int64{2, 2, 2, 1}
	for i, w := range want {
		if h.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, h.Counts[i], w, h.Counts)
		}
	}
	if h.Total() != 7 {
		t.Fatalf("total %d", h.Total())
	}
}

func TestSumCores(t *testing.T) {
	r := &RunSummary{Cores: []CoreStats{
		{Instrs: 10, Loads: 5, Branches: 2, Mispreds: 1, Atomics: 3, TasksRun: 7},
		{Instrs: 20, Loads: 15, Branches: 4, Mispreds: 2, Atomics: 1, TasksRun: 3},
	}}
	s := r.SumCores()
	if s.Instrs != 30 || s.Loads != 20 || s.Branches != 6 || s.Mispreds != 3 || s.Atomics != 4 || s.TasksRun != 10 {
		t.Fatalf("sum wrong: %+v", s)
	}
}
