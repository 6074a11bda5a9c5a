package minnow

import (
	"reflect"
	"testing"
)

// knobPrereqs sets what Validate requires before a tagged knob may take
// a non-default value. Each prerequisite is itself a tagged knob, so it
// cannot move the hash on its own.
var knobPrereqs = map[string]func(*Config){
	"EpochWindow": func(c *Config) { c.IntraJobs = 1 },
	"OnSample":    func(c *Config) { c.MetricsEvery = 4096 },
}

// setKnob stores a non-default value in a tagged field: 2 for int knobs
// (worker and slot counts), 4096 for int64 knobs (cycle counts), true for
// bools, and a function returning zero values for hooks. It reports
// false for kinds it does not handle.
func setKnob(f reflect.Value) bool {
	switch f.Kind() {
	case reflect.Int:
		f.SetInt(2)
	case reflect.Int64:
		f.SetInt(4096)
	case reflect.Bool:
		f.SetBool(true)
	case reflect.Func:
		typ := f.Type()
		f.Set(reflect.MakeFunc(typ, func([]reflect.Value) []reflect.Value {
			out := make([]reflect.Value, typ.NumOut())
			for i := range out {
				out[i] = reflect.Zero(typ.Out(i))
			}
			return out
		}))
	default:
		return false
	}
	return true
}

// TestTaggedKnobsInert is the generated proof behind the knob:"host" and
// knob:"observe" field classes: for every tagged Config field, found by
// reflection, a small Minnow+prefetch run with that field set to a
// non-default value has the same SummaryHash as the run without it. The
// service cache key leaves exactly these fields out, so a tag on a
// result-affecting field fails here.
func TestTaggedKnobsInert(t *testing.T) {
	base := Config{Threads: 2, Minnow: true, Prefetch: true}
	ref, err := Run("SSSP", base)
	if err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeOf(base)
	tagged := 0
	for i := 0; i < typ.NumField(); i++ {
		field := typ.Field(i)
		if field.Tag.Get("knob") == "" {
			continue
		}
		tagged++
		t.Run(field.Name, func(t *testing.T) {
			cfg := base
			if pre := knobPrereqs[field.Name]; pre != nil {
				pre(&cfg)
			}
			if !setKnob(reflect.ValueOf(&cfg).Elem().Field(i)) {
				t.Fatalf("unhandled field kind %s", field.Type.Kind())
			}
			res, err := Run("SSSP", cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.SummaryHash != ref.SummaryHash {
				t.Errorf("knob:%q field changed the summary hash: %s != %s",
					field.Tag.Get("knob"), res.SummaryHash, ref.SummaryHash)
			}
		})
	}
	if tagged == 0 {
		t.Fatal("no tagged fields found on Config")
	}
}
