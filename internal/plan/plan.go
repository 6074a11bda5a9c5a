// Package plan is the one clause grammar behind the fault and arrival
// plan strings. A plan is either a preset name or semicolon-separated
// clauses:
//
//	seed=N                 the plan's rng seed (the last seed= wins)
//	name[:key=value,...]   one clause of the caller's language
//
// Values are single tokens; a list value joins its entries with '+'
// (engines=0+2, period=500+900). Whitespace around clauses, keys, and
// values is ignored, and empty clauses are skipped. A clause may not
// repeat a key, and every key it carries must be one its meaning reads:
// a silently ignored typo (cycle= for cycles=) would make a plan lie
// about itself.
//
// The grammar knows nothing of what a clause means. Each plan language
// declares a Grammar (its error prefix, presets, and clause names) and
// folds every clause into its own plan through the Args readers; every
// error the grammar returns starts with the language's prefix.
package plan

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
)

// Grammar declares one plan language.
type Grammar struct {
	// Prefix opens every error message ("fault", "arrival").
	Prefix string
	// Presets maps each preset name to the plan string it stands for.
	Presets map[string]string
	// Clauses are the clause names the language accepts, in the order
	// the unknown-clause error lists them.
	Clauses []string
}

// PresetNames returns the grammar's preset names, sorted.
func (g *Grammar) PresetNames() []string {
	return slices.Sorted(maps.Keys(g.Presets))
}

// Parse expands a preset, splits s into clauses, and calls clause once
// per name:key=value clause in order, with the clause's arguments. After
// clause returns nil, the first error its Args readers hit is returned,
// then any key it never read. Parse returns the last seed= value (0 when
// the plan has none); it does not require any clause.
func (g *Grammar) Parse(s string, clause func(name string, a *Args) error) (uint64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, fmt.Errorf("%s: empty plan", g.Prefix)
	}
	if preset, ok := g.Presets[s]; ok {
		s = preset
	}
	var seed uint64
	for _, c := range strings.Split(s, ";") {
		c = strings.TrimSpace(c)
		if c == "" {
			continue
		}
		name, argstr, _ := strings.Cut(c, ":")
		name = strings.TrimSpace(name)
		if key, val, bare := strings.Cut(name, "="); bare {
			if key != "seed" {
				return 0, fmt.Errorf("%s: unknown clause %q", g.Prefix, key)
			}
			v, err := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("%s: bad seed %q", g.Prefix, val)
			}
			seed = v
			continue
		}
		a, err := g.args(name, argstr)
		if err != nil {
			return 0, err
		}
		if !slices.Contains(g.Clauses, name) {
			return 0, fmt.Errorf("%s: unknown clause %q (have %s, seed)", g.Prefix, name, strings.Join(g.Clauses, ", "))
		}
		if err := clause(name, a); err != nil {
			return 0, err
		}
		if a.err != nil {
			return 0, a.err
		}
		if err := a.unknown(); err != nil {
			return 0, err
		}
	}
	return seed, nil
}

// args splits one clause's key=value list, rejecting malformed pairs and
// repeated keys.
func (g *Grammar) args(clause, argstr string) (*Args, error) {
	a := &Args{prefix: g.Prefix, clause: clause, vals: map[string]string{}, used: map[string]bool{}}
	argstr = strings.TrimSpace(argstr)
	if argstr == "" {
		return a, nil
	}
	for _, kv := range strings.Split(argstr, ",") {
		key, val, ok := strings.Cut(kv, "=")
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if !ok || key == "" || val == "" {
			return nil, fmt.Errorf("%s: %s: malformed argument %q", g.Prefix, clause, kv)
		}
		if _, dup := a.vals[key]; dup {
			return nil, fmt.Errorf("%s: %s: duplicate key %q", g.Prefix, clause, key)
		}
		a.vals[key] = val
	}
	return a, nil
}

// Args holds one clause's key=value pairs. Its readers return the
// default when a key is absent and record the first invalid value they
// meet; Parse reports that error once the clause is folded.
type Args struct {
	prefix, clause string
	vals           map[string]string
	used           map[string]bool
	err            error
}

// value marks key as read and returns its raw value.
func (a *Args) value(key string) (string, bool) {
	a.used[key] = true
	s, ok := a.vals[key]
	return s, ok
}

// Prob reads a probability in [0, 1].
func (a *Args) Prob(key string, def float64) float64 {
	s, ok := a.value(key)
	if !ok {
		return def
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || v < 0 || v > 1 {
		a.fail("%s=%q is not a probability in [0,1]", key, s)
		return 0
	}
	return v
}

// Num reads a non-negative integer.
func (a *Args) Num(key string, def int64) int64 {
	s, ok := a.value(key)
	if !ok {
		return def
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil || v < 0 {
		a.fail("%s=%q is not a non-negative integer", key, s)
		return 0
	}
	return v
}

// Pos reads a positive integer.
func (a *Args) Pos(key string, def int64) int64 {
	s, ok := a.value(key)
	if !ok {
		return def
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil || v <= 0 {
		a.fail("%s=%q is not a positive integer", key, s)
		return 0
	}
	return v
}

// List reads a '+'-separated list of non-negative integers.
func (a *Args) List(key string, def []int64) []int64 {
	s, ok := a.value(key)
	if !ok {
		return def
	}
	parts := strings.Split(s, "+")
	out := make([]int64, 0, len(parts))
	for _, ps := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(ps), 10, 64)
		if err != nil || v < 0 {
			a.fail("%s=%q is not a +-separated list of non-negative integers", key, s)
			return nil
		}
		out = append(out, v)
	}
	return out
}

func (a *Args) fail(format string, args ...any) {
	if a.err == nil {
		a.err = fmt.Errorf("%s: %s: %s", a.prefix, a.clause, fmt.Sprintf(format, args...))
	}
}

// unknown rejects the keys the clause never read.
func (a *Args) unknown() error {
	var extra []string
	for k := range a.vals {
		if !a.used[k] {
			extra = append(extra, k)
		}
	}
	if len(extra) == 0 {
		return nil
	}
	slices.Sort(extra)
	return fmt.Errorf("%s: %s: unknown key(s) %s", a.prefix, a.clause, strings.Join(extra, ", "))
}

// Join renders a list value in '+' form, the inverse of List.
func Join[T ~int | ~int32 | ~int64](vs []T) string {
	strs := make([]string, len(vs))
	for i, v := range vs {
		strs[i] = strconv.FormatInt(int64(v), 10)
	}
	return strings.Join(strs, "+")
}
