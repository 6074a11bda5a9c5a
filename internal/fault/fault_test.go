package fault

import (
	"strings"
	"testing"
)

// TestParsePresets checks every named preset expands to a usable plan.
func TestParsePresets(t *testing.T) {
	for _, name := range Presets() {
		p, err := ParsePlan(name)
		if err != nil {
			t.Fatalf("preset %q: %v", name, err)
		}
		if p.Seed == 0 {
			t.Fatalf("preset %q: zero seed", name)
		}
		switch name {
		case "transient":
			if !p.Transient() {
				t.Fatalf("transient preset reports Transient()=false")
			}
			if p.EngineStall.P <= 0 || p.NoCDelay.P <= 0 || p.DRAMRetry.P <= 0 ||
				p.SpillRetry.P <= 0 || p.CreditLoss <= 0 {
				t.Fatalf("transient preset missing clauses: %+v", p)
			}
		case "offline":
			if p.Transient() {
				t.Fatalf("offline preset reports Transient()=true")
			}
			if p.OfflineAt <= 0 {
				t.Fatalf("offline preset has OfflineAt=%d", p.OfflineAt)
			}
		case "chaos":
			if p.Transient() || p.EngineStall.P <= 0 || p.OfflineAt <= 0 {
				t.Fatalf("chaos preset incomplete: %+v", p)
			}
		}
	}
}

// TestPlanStringRoundTrip verifies the canonical rendering re-parses to
// an identical plan, for presets and hand-written clause expressions.
func TestPlanStringRoundTrip(t *testing.T) {
	exprs := append(Presets(),
		"seed=7",
		"engine-stall:p=0.25,cycles=10",
		"engine-offline:at=123,engines=0+2",
		"seed=9;dram-retry:p=1,extra=1,max=1;credit-loss:p=0.125",
		"spill-retry:p=0.5,backoff=32,max=8",
	)
	for _, expr := range exprs {
		p1, err := ParsePlan(expr)
		if err != nil {
			t.Fatalf("parse %q: %v", expr, err)
		}
		s1 := p1.String()
		p2, err := ParsePlan(s1)
		if err != nil {
			t.Fatalf("re-parse %q (from %q): %v", s1, expr, err)
		}
		if s2 := p2.String(); s1 != s2 {
			t.Fatalf("round trip of %q unstable: %q -> %q", expr, s1, s2)
		}
	}
}

// TestParsePlanErrors enumerates the rejection paths.
func TestParsePlanErrors(t *testing.T) {
	bad := []string{
		"",                               // empty plan
		"warp-core:p=0.1",                // unknown clause
		"seed=banana",                    // bad seed
		"engine-offline:at=0",            // offline needs at > 0
		"engine-stall:p",                 // malformed argument
		"engine-stall:p=0.1,p=0.2",       // duplicate key
		"engine-stall:p=1.5",             // probability out of range
		"engine-stall:p=-0.1",            // negative probability
		"engine-stall:cycles=-4",         // negative count
		"engine-offline:at=5,engines=-1", // bad engine index
		"engine-stall:zap=3",             // unknown key

		// engines= is an ordinary engine-offline key.
		"engine-stall:p=0.1,engines=0",            // on another clause
		"credit-loss:p=0.1,engines=3+4",           // on another clause
		"engine-offline:at=5,engines=0,engines=1", // duplicate key
	}
	for _, expr := range bad {
		if _, err := ParsePlan(expr); err == nil {
			t.Errorf("ParsePlan(%q) accepted a bad plan", expr)
		}
	}
}

// TestInjectorDeterminism builds two injectors from the same plan and
// checks every fault domain yields an identical draw sequence.
func TestInjectorDeterminism(t *testing.T) {
	p, err := ParsePlan("chaos")
	if err != nil {
		t.Fatal(err)
	}
	a, b := NewInjector(p), NewInjector(p)
	for i := 0; i < 4096; i++ {
		if x, y := a.EngineStall(), b.EngineStall(); x != y {
			t.Fatalf("EngineStall draw %d: %d != %d", i, x, y)
		}
		if x, y := a.NoCDelay(), b.NoCDelay(); x != y {
			t.Fatalf("NoCDelay draw %d: %d != %d", i, x, y)
		}
		if x, y := a.DRAMRetry(), b.DRAMRetry(); x != y {
			t.Fatalf("DRAMRetry draw %d: %d != %d", i, x, y)
		}
		xa, oka := a.SpillRetry(1 + i%4)
		xb, okb := b.SpillRetry(1 + i%4)
		if xa != xb || oka != okb {
			t.Fatalf("SpillRetry draw %d: (%d,%v) != (%d,%v)", i, xa, oka, xb, okb)
		}
		if x, y := a.LoseCredit(), b.LoseCredit(); x != y {
			t.Fatalf("LoseCredit draw %d: %v != %v", i, x, y)
		}
	}
}

// TestInjectorDomainsIndependent verifies draws in one domain do not
// shift another domain's stream (per-domain RNGs).
func TestInjectorDomainsIndependent(t *testing.T) {
	p, err := ParsePlan("transient")
	if err != nil {
		t.Fatal(err)
	}
	a, b := NewInjector(p), NewInjector(p)
	// Burn only engine-stall draws on a; b stays fresh.
	for i := 0; i < 1000; i++ {
		a.EngineStall()
	}
	for i := 0; i < 100; i++ {
		if x, y := a.NoCDelay(), b.NoCDelay(); x != y {
			t.Fatalf("NoCDelay stream perturbed by EngineStall draws at %d", i)
		}
	}
}

// TestSpillRetryBackoff checks the exponential backoff shape and the
// attempt cap.
func TestSpillRetryBackoff(t *testing.T) {
	p, err := ParsePlan("spill-retry:p=1,backoff=16,max=3")
	if err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(p)
	for attempt := 1; attempt <= 3; attempt++ {
		d, ok := inj.SpillRetry(attempt)
		if !ok {
			t.Fatalf("attempt %d refused below max", attempt)
		}
		want := int64(16) << (attempt - 1)
		if int64(d) != want {
			t.Fatalf("attempt %d backoff %d, want %d", attempt, d, want)
		}
	}
	if _, ok := inj.SpillRetry(4); ok {
		t.Fatalf("attempt past max granted a retry")
	}
}

// TestEngineOfflineAt checks the engine-list filter: listed engines get
// the offline time, unlisted engines never go offline, and an empty list
// means every engine.
func TestEngineOfflineAt(t *testing.T) {
	p, err := ParsePlan("engine-offline:at=500,engines=1+3")
	if err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(p)
	for _, e := range []int{1, 3} {
		at, ok := inj.EngineOfflineAt(e)
		if !ok || int64(at) != 500 {
			t.Fatalf("engine %d: got (%d,%v), want (500,true)", e, at, ok)
		}
	}
	for _, e := range []int{0, 2, 4} {
		if _, ok := inj.EngineOfflineAt(e); ok {
			t.Fatalf("engine %d offline but not in list", e)
		}
	}

	all, err := ParsePlan("engine-offline:at=77")
	if err != nil {
		t.Fatal(err)
	}
	inj = NewInjector(all)
	for e := 0; e < 8; e++ {
		at, ok := inj.EngineOfflineAt(e)
		if !ok || int64(at) != 77 {
			t.Fatalf("engine %d: got (%d,%v), want (77,true)", e, at, ok)
		}
	}
}

// TestNilInjectorSafe checks the nil-receiver fast paths used by hot
// simulator code.
func TestNilInjectorSafe(t *testing.T) {
	var inj *Injector
	if d := inj.EngineStall(); d != 0 {
		t.Fatalf("nil EngineStall = %d", d)
	}
	if d, ok := inj.SpillRetry(1); d != 0 || ok {
		t.Fatalf("nil SpillRetry = (%d,%v)", d, ok)
	}
	if inj.LoseCredit() {
		t.Fatalf("nil LoseCredit = true")
	}
	if _, ok := inj.EngineOfflineAt(0); ok {
		t.Fatalf("nil EngineOfflineAt granted")
	}
}

// FuzzParsePlan feeds arbitrary strings through the parser: it must
// never panic, every rejection must carry the "fault:" prefix, and any
// accepted plan must render canonically and round-trip to the same
// rendering.
func FuzzParsePlan(f *testing.F) {
	for _, seed := range append(Presets(),
		"seed=3;engine-stall:p=0.5,cycles=9",
		"credit-loss:p=0.01",
		"engine-offline:at=10,engines=0",
		"bogus", "a:b=c", ";;", "seed=",
	) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePlan(s)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "fault:") {
				t.Fatalf("ParsePlan(%q) error %q lacks the fault: prefix", s, err)
			}
			return
		}
		s1 := p.String()
		if s1 == "" {
			// A plan with every clause disabled renders empty; nothing
			// more to check.
			return
		}
		p2, err := ParsePlan(s1)
		if err != nil {
			t.Fatalf("canonical form %q (from %q) does not re-parse: %v", s1, s, err)
		}
		if s2 := p2.String(); s1 != s2 {
			t.Fatalf("canonical form unstable: %q -> %q (input %q)", s1, s2, s)
		}
		if strings.Contains(s1, " ") {
			t.Fatalf("canonical form contains spaces: %q", s1)
		}
	})
}
