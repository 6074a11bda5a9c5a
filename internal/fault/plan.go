// Package fault implements deterministic, seeded fault injection and the
// diagnostic machinery around it: parseable fault plans, a per-run
// injector whose decisions derive from decorrelated rng streams, and the
// watchdog snapshot dumped when a run stops making progress.
//
// The paper's central robustness claim is that Minnow engines are
// *optional accelerators* (§3-§4): when an engine stalls, loses credits,
// or disappears, the cores must degrade gracefully to the software OBIM
// baseline with no lost tasks. This package supplies the controlled ways
// to break the system so the harness can prove that claim:
//
//   - engine-stall: the engine back-end freezes for a burst of cycles;
//   - engine-offline: the engine dies permanently at a planned time and
//     its cores fall back to a software worklist mid-run;
//   - noc-delay: transient message-latency spikes on the mesh;
//   - dram-retry: transient DRAM retry latency;
//   - spill-retry: the engine's spill/fill accesses transiently fail and
//     are reissued under bounded exponential backoff;
//   - credit-loss: prefetch credit returns are dropped, exercising the
//     engine's credit-leak audit and pool recovery.
//
// Determinism contract: every injection decision comes from rng streams
// seeded by the plan alone, and the simulator consults the injector in
// the deterministic actor order, so the same (configuration, seed, plan)
// triple always reproduces the same faults at the same simulated times —
// and therefore the same RunSummary hash. With no plan installed every
// hook is nil or a single comparison; fault-free runs are byte-identical
// to a build without this package.
package fault

import (
	"fmt"
	"strings"

	"minnow/internal/plan"
	"minnow/internal/sim"
)

// ProbDelay is a per-event fault: with probability P the event is delayed
// by Cycles.
type ProbDelay struct {
	// P is the per-event probability of a delay.
	P float64
	// Cycles is the length of each delay.
	Cycles sim.Time
}

// RetrySpec is a per-access retry fault: each of up to Max rounds fails
// independently with probability P, adding Extra cycles per failed round.
type RetrySpec struct {
	// P is the probability that one round fails.
	P float64
	// Extra is the latency each failed round adds.
	Extra sim.Time
	// Max caps the rounds per access.
	Max int
}

// BackoffSpec is a retry-with-backoff fault: attempt n fails with
// probability P (so the chance of reaching attempt n decays
// geometrically), costs Backoff<<(n-1) cycles of exponential backoff,
// and gives up after Max attempts.
type BackoffSpec struct {
	// P is the probability that one attempt fails.
	P float64
	// Backoff is the first retry's delay; it doubles per attempt.
	Backoff sim.Time
	// Max caps the attempts that may fail; later ones succeed.
	Max int
}

// Plan is one parsed fault plan. The zero value injects nothing.
type Plan struct {
	// Seed drives the injector's rng streams (0 is treated as 1).
	Seed uint64

	// EngineStall freezes an engine back-end for Cycles with probability
	// P per engine step.
	EngineStall ProbDelay
	// NoCDelay adds Cycles to a mesh message with probability P.
	NoCDelay ProbDelay
	// DRAMRetry adds retry latency to DRAM accesses.
	DRAMRetry RetrySpec
	// SpillRetry makes engine spill/fill memory accesses transiently
	// fail; the engine reissues them under bounded exponential backoff.
	SpillRetry BackoffSpec
	// CreditLoss drops each prefetch credit return with this probability.
	CreditLoss float64

	// OfflineAt, when positive, kills engines permanently the first time
	// one of their cores touches them at or after this simulated time.
	OfflineAt sim.Time
	// OfflineEngines selects which engine indices die (nil = all).
	OfflineEngines []int
}

// Transient reports whether the plan contains only recoverable faults
// (no permanent engine-offline events). Transient plans must leave
// benchmark answers bit-identical to the fault-free run.
func (p *Plan) Transient() bool { return p.OfflineAt <= 0 }

// String renders the plan in canonical clause form; ParsePlan(p.String())
// reproduces the plan.
func (p *Plan) String() string {
	var cl []string
	if p.Seed != 0 {
		cl = append(cl, fmt.Sprintf("seed=%d", p.Seed))
	}
	if p.EngineStall.P > 0 {
		cl = append(cl, fmt.Sprintf("engine-stall:p=%g,cycles=%d", p.EngineStall.P, p.EngineStall.Cycles))
	}
	if p.OfflineAt > 0 {
		c := fmt.Sprintf("engine-offline:at=%d", p.OfflineAt)
		if len(p.OfflineEngines) > 0 {
			c += ",engines=" + plan.Join(p.OfflineEngines)
		}
		cl = append(cl, c)
	}
	if p.NoCDelay.P > 0 {
		cl = append(cl, fmt.Sprintf("noc-delay:p=%g,cycles=%d", p.NoCDelay.P, p.NoCDelay.Cycles))
	}
	if p.DRAMRetry.P > 0 {
		cl = append(cl, fmt.Sprintf("dram-retry:p=%g,extra=%d,max=%d", p.DRAMRetry.P, p.DRAMRetry.Extra, p.DRAMRetry.Max))
	}
	if p.SpillRetry.P > 0 {
		cl = append(cl, fmt.Sprintf("spill-retry:p=%g,backoff=%d,max=%d", p.SpillRetry.P, p.SpillRetry.Backoff, p.SpillRetry.Max))
	}
	if p.CreditLoss > 0 {
		cl = append(cl, fmt.Sprintf("credit-loss:p=%g", p.CreditLoss))
	}
	return strings.Join(cl, ";")
}

// grammar declares the fault-plan language. Its presets are
// "transient" (every recoverable fault class at once), "offline" (all
// engines die mid-run), and "chaos" (both).
var grammar = plan.Grammar{
	Prefix: "fault",
	Presets: map[string]string{
		"transient": "seed=1;engine-stall:p=0.002,cycles=400;noc-delay:p=0.001,cycles=150;" +
			"dram-retry:p=0.002,extra=120,max=2;spill-retry:p=0.005,backoff=64,max=4;credit-loss:p=0.05",
		"offline": "seed=1;engine-offline:at=50000",
		"chaos": "seed=1;engine-stall:p=0.002,cycles=400;noc-delay:p=0.001,cycles=150;" +
			"dram-retry:p=0.002,extra=120,max=2;spill-retry:p=0.005,backoff=64,max=4;credit-loss:p=0.05;" +
			"engine-offline:at=50000",
	},
	Clauses: []string{"engine-stall", "engine-offline", "noc-delay", "dram-retry", "spill-retry", "credit-loss"},
}

// Presets lists the named plans accepted by ParsePlan, sorted.
func Presets() []string { return grammar.PresetNames() }

// ParsePlan parses a fault-plan string (see package plan for the
// grammar): either a preset name (see Presets) or semicolon-separated
// clauses of the form
//
//	seed=N
//	engine-stall:p=F,cycles=N
//	engine-offline:at=N[,engines=0+1+...]
//	noc-delay:p=F,cycles=N
//	dram-retry:p=F[,extra=N][,max=N]
//	spill-retry:p=F[,backoff=N][,max=N]
//	credit-loss:p=F
//
// Probabilities must lie in [0, 1]; counts and cycle values must be
// non-negative. Omitted optional keys take conservative defaults. A plan
// of only seed= is accepted and injects nothing.
func ParsePlan(s string) (*Plan, error) {
	p := &Plan{}
	seed, err := grammar.Parse(s, p.clause)
	if err != nil {
		return nil, err
	}
	p.Seed = seed
	return p, nil
}

// clause folds one clause into the plan.
func (p *Plan) clause(name string, a *plan.Args) error {
	switch name {
	case "engine-stall":
		p.EngineStall.P = a.Prob("p", 0.001)
		p.EngineStall.Cycles = sim.Time(a.Num("cycles", 400))
	case "engine-offline":
		p.OfflineAt = sim.Time(a.Num("at", 50000))
		var engines []int
		for _, e := range a.List("engines", nil) {
			engines = append(engines, int(e))
		}
		p.OfflineEngines = engines
		if p.OfflineAt <= 0 {
			return fmt.Errorf("fault: engine-offline needs at > 0")
		}
	case "noc-delay":
		p.NoCDelay.P = a.Prob("p", 0.001)
		p.NoCDelay.Cycles = sim.Time(a.Num("cycles", 150))
	case "dram-retry":
		p.DRAMRetry.P = a.Prob("p", 0.001)
		p.DRAMRetry.Extra = sim.Time(a.Num("extra", 120))
		p.DRAMRetry.Max = int(a.Num("max", 2))
	case "spill-retry":
		p.SpillRetry.P = a.Prob("p", 0.001)
		p.SpillRetry.Backoff = sim.Time(a.Num("backoff", 64))
		p.SpillRetry.Max = int(a.Num("max", 4))
	case "credit-loss":
		p.CreditLoss = a.Prob("p", 0.01)
	}
	return nil
}
