// Package arrival implements deterministic open-loop task arrival
// processes: parseable arrival plans (Poisson, bursty on/off,
// multi-period, and replay-from-trace clauses), and the seeded schedule
// generation that turns a plan into a fixed list of (cycle, node, class)
// injection events before the simulation starts.
//
// The paper's benchmarks are closed-loop — the worklist is seeded once
// and drained — which only exercises throughput. An arrival plan opens
// the latency axis: tasks *arrive* mid-run at scheduled cycles, flow
// through the same worklist backpressure machinery as operator-generated
// work, and report sojourn and queue-wait percentiles per arrival class.
//
// Determinism contract: every arrival decision (inter-arrival gaps and
// node choices alike) comes from rng streams seeded by the plan alone,
// and the whole schedule is materialized up front, so the same
// (configuration, plan) pair always injects the same tasks at the same
// simulated cycles — runs with arrivals stay bit-reproducible and the
// determinism self-check, parallel equivalence, and result cache all
// keep working unchanged.
package arrival

import (
	"fmt"
	"strings"

	"minnow/internal/plan"
)

// Kind names an arrival class's generating process.
type Kind uint8

const (
	// Poisson is a memoryless process: exponential inter-arrival gaps
	// with a configured mean.
	Poisson Kind = iota
	// Burst is an on/off-modulated Poisson process: arrivals are drawn
	// at the configured mean gap during "on" windows and suppressed
	// during "off" windows.
	Burst
	// Periodic is a deterministic process: arrivals at fixed gaps drawn
	// cyclically from a period list (a single period gives a strict
	// clock; several give a repeating multi-period pattern).
	Periodic
	// Trace replays an explicit list of arrival cycles (and optionally
	// pinned nodes) recorded elsewhere.
	Trace
)

// String returns the clause name of the kind.
func (k Kind) String() string {
	switch k {
	case Poisson:
		return "poisson"
	case Burst:
		return "burst"
	case Periodic:
		return "periodic"
	case Trace:
		return "trace"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Class is one arrival class: a single clause of the plan. Each class
// owns a decorrelated rng stream and is reported separately in the
// latency statistics.
type Class struct {
	// Kind selects the generating process.
	Kind Kind
	// Gap is the mean inter-arrival gap in cycles (Poisson, Burst).
	Gap int64
	// Count bounds the class to this many arrivals (all kinds except
	// Trace, whose length is its at= list).
	Count int64
	// Start delays the first arrival window to this cycle.
	Start int64
	// On and Off are the burst window lengths in cycles (Burst only).
	On, Off int64
	// Periods is the cyclic gap list (Periodic only).
	Periods []int64
	// At is the explicit arrival-cycle list (Trace only), ascending.
	At []int64
	// Nodes optionally pins the trace arrivals' nodes, aligned with At
	// (Trace only; empty means nodes are drawn from the class stream).
	Nodes []int32
}

// Plan is one parsed arrival plan. The zero value injects nothing and is
// rejected by ParsePlan (a plan must carry at least one class).
type Plan struct {
	// Seed drives the per-class rng streams (0 is treated as 1).
	Seed uint64
	// Classes are the arrival classes in clause order.
	Classes []Class
}

// Total returns the number of arrivals the plan will inject.
func (p *Plan) Total() int64 {
	var n int64
	for i := range p.Classes {
		c := &p.Classes[i]
		if c.Kind == Trace {
			n += int64(len(c.At))
		} else {
			n += c.Count
		}
	}
	return n
}

// String renders the plan in canonical clause form;
// ParsePlan(p.String()) reproduces the plan.
func (p *Plan) String() string {
	var cl []string
	if p.Seed != 0 {
		cl = append(cl, fmt.Sprintf("seed=%d", p.Seed))
	}
	for i := range p.Classes {
		c := &p.Classes[i]
		switch c.Kind {
		case Poisson:
			s := fmt.Sprintf("poisson:gap=%d,count=%d", c.Gap, c.Count)
			if c.Start > 0 {
				s += fmt.Sprintf(",start=%d", c.Start)
			}
			cl = append(cl, s)
		case Burst:
			s := fmt.Sprintf("burst:gap=%d,count=%d,on=%d,off=%d", c.Gap, c.Count, c.On, c.Off)
			if c.Start > 0 {
				s += fmt.Sprintf(",start=%d", c.Start)
			}
			cl = append(cl, s)
		case Periodic:
			s := fmt.Sprintf("periodic:period=%s,count=%d", plan.Join(c.Periods), c.Count)
			if c.Start > 0 {
				s += fmt.Sprintf(",start=%d", c.Start)
			}
			cl = append(cl, s)
		case Trace:
			s := "trace:at=" + plan.Join(c.At)
			if len(c.Nodes) > 0 {
				s += ",nodes=" + plan.Join(c.Nodes)
			}
			cl = append(cl, s)
		}
	}
	return strings.Join(cl, ";")
}

// grammar declares the arrival-plan language. Its presets are "steady"
// (a single Poisson stream), "burst" (heavy on/off bursts), "waves" (a
// deterministic multi-period pattern), and "trickle" (sparse arrivals
// with long quiet gaps — the watchdog's open-loop stress case).
var grammar = plan.Grammar{
	Prefix: "arrival",
	Presets: map[string]string{
		"steady":  "seed=1;poisson:gap=600,count=400",
		"burst":   "seed=1;burst:gap=250,count=400,on=20000,off=60000",
		"waves":   "seed=1;periodic:period=500+900+1400,count=300",
		"trickle": "seed=1;poisson:gap=40000,count=32",
	},
	Clauses: []string{"poisson", "burst", "periodic", "trace"},
}

// Presets lists the named plans accepted by ParsePlan, sorted.
func Presets() []string { return grammar.PresetNames() }

// ParsePlan parses an arrival-plan string (see package plan for the
// grammar): either a preset name (see Presets) or semicolon-separated
// clauses of the form
//
//	seed=N
//	poisson:gap=N,count=N[,start=N]
//	burst:gap=N,count=N,on=N,off=N[,start=N]
//	periodic:period=N1+N2+...,count=N[,start=N]
//	trace:at=N1+N2+...[,nodes=N1+N2+...]
//
// Gaps, counts, windows, and cycles must be positive; trace at= lists
// must be ascending; a plan must contain at least one arrival clause.
func ParsePlan(s string) (*Plan, error) {
	p := &Plan{}
	seed, err := grammar.Parse(s, p.clause)
	if err != nil {
		return nil, err
	}
	if len(p.Classes) == 0 {
		return nil, fmt.Errorf("arrival: plan has no arrival clauses (want poisson, burst, periodic, or trace)")
	}
	p.Seed = seed
	return p, nil
}

// clause appends one clause's class to the plan.
func (p *Plan) clause(name string, a *plan.Args) error {
	var c Class
	switch name {
	case "poisson":
		c.Kind = Poisson
		c.Gap = a.Pos("gap", 1000)
		c.Count = a.Pos("count", 100)
		c.Start = a.Num("start", 0)
	case "burst":
		c.Kind = Burst
		c.Gap = a.Pos("gap", 500)
		c.Count = a.Pos("count", 100)
		c.On = a.Pos("on", 10000)
		c.Off = a.Pos("off", 30000)
		c.Start = a.Num("start", 0)
	case "periodic":
		c.Kind = Periodic
		c.Periods = a.List("period", []int64{1000})
		c.Count = a.Pos("count", 100)
		c.Start = a.Num("start", 0)
		for _, pd := range c.Periods {
			if pd <= 0 {
				return fmt.Errorf("arrival: periodic: period entries must be positive, got %d", pd)
			}
		}
	case "trace":
		c.Kind = Trace
		c.At = a.List("at", nil)
		if len(c.At) == 0 {
			return fmt.Errorf("arrival: trace: needs a non-empty at= cycle list")
		}
		for i, at := range c.At {
			if at < 0 || (i > 0 && at < c.At[i-1]) {
				return fmt.Errorf("arrival: trace: at= list must be ascending and non-negative")
			}
		}
		for _, n := range a.List("nodes", nil) {
			if n < 0 {
				return fmt.Errorf("arrival: trace: nodes must be non-negative, got %d", n)
			}
			c.Nodes = append(c.Nodes, int32(n))
		}
		if len(c.Nodes) > 0 && len(c.Nodes) != len(c.At) {
			return fmt.Errorf("arrival: trace: nodes= list (%d entries) must align with at= (%d entries)",
				len(c.Nodes), len(c.At))
		}
	}
	p.Classes = append(p.Classes, c)
	return nil
}
