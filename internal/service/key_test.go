package service

import (
	"container/heap"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"minnow"
)

// TestCacheKeyDefaultResolution pins the canonicalization rule that an
// omitted knob and its explicit documented default address the same
// cache entry.
func TestCacheKeyDefaultResolution(t *testing.T) {
	k1, _ := CacheKey("SSSP", minnow.Config{})
	k2, _ := CacheKey("SSSP", minnow.Config{Threads: 8, Scale: 1, Seed: 42, Credits: 32, MemChannels: 12, Scheduler: "obim"})
	if k1 != k2 {
		t.Fatalf("zero config and explicit defaults key differently: %s != %s", k1, k2)
	}
	k3, _ := CacheKey("SSSP", minnow.Config{Threads: 16})
	if k3 == k1 {
		t.Fatal("non-default Threads did not change the key")
	}
}

// setNonZero stores a non-zero value derived from n into a settable data
// field: n for numbers, true for bools, a string naming n, and a pointer
// to n. It reports false for kinds it does not handle (func hooks).
func setNonZero(f reflect.Value, n int) bool {
	switch f.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		f.SetInt(int64(n))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		f.SetUint(uint64(n))
	case reflect.Bool:
		f.SetBool(true)
	case reflect.String:
		f.SetString(fmt.Sprintf("v%d", n))
	case reflect.Pointer:
		p := reflect.New(f.Type().Elem())
		if !setNonZero(p.Elem(), n) {
			return false
		}
		f.Set(p)
	default:
		return false
	}
	return true
}

// TestCacheKeyExclusions classifies every minnow.Config data field by
// reflection: setting it alone to a non-zero, non-default value must
// leave the key unchanged for fields tagged knob:"host" or
// knob:"observe" and change it for every other field, so a new knob
// cannot reach the wire unclassified. Func hooks have no wire form and
// are skipped.
func TestCacheKeyExclusions(t *testing.T) {
	base, _ := CacheKey("BFS", minnow.Config{})
	typ := reflect.TypeOf(minnow.Config{})
	excluded := 0
	for i := 0; i < typ.NumField(); i++ {
		var cfg minnow.Config
		field := typ.Field(i)
		if !setNonZero(reflect.ValueOf(&cfg).Elem().Field(i), 3) {
			if field.Type.Kind() != reflect.Func {
				t.Fatalf("%s: unhandled field kind %s", field.Name, field.Type.Kind())
			}
			continue
		}
		k, _ := CacheKey("BFS", cfg)
		switch class := field.Tag.Get("knob"); {
		case class == "host" || class == "observe":
			excluded++
			if k != base {
				t.Errorf("%s: knob:%q field changed the key", field.Name, class)
			}
		case class != "":
			t.Errorf("%s: unknown knob class %q", field.Name, class)
		case k == base:
			t.Errorf("%s: outcome-affecting knob did not change the key", field.Name)
		}
	}
	if excluded == 0 {
		t.Error("no tagged fields found on minnow.Config")
	}
	if k, _ := CacheKey("CC", minnow.Config{}); k == base {
		t.Error("benchmark name did not change the key")
	}
}

// TestCacheKeyV3Golden pins today's V3 key hex for two fixed
// configurations, so on-disk caches keyed by earlier builds stay valid.
// A deliberate canonicalization change must bump the document's "v" and
// update these values.
func TestCacheKeyV3Golden(t *testing.T) {
	lg := uint(4)
	for i, c := range []struct {
		bench string
		cfg   minnow.Config
		want  string
	}{
		{"SSSP", minnow.Config{}, "422113f2281540fbaf301ce43eda0d3f8d499dbabcac9dc7d359dcd3bc71b31f"},
		{"BFS", minnow.Config{Threads: 4, Minnow: true, Prefetch: true, Credits: 8, LgInterval: &lg,
			Faults: "transient", Arrivals: "steady", MaxCycles: 1 << 30, SharedHorizons: true,
			IntraJobs: 2, Timeline: true}, "6065bd6a23feb7f5b84c2322203c7e648b6915f6e0fbbbaa9d43fa0d07b1881d"},
	} {
		if got, _ := CacheKey(c.bench, c.cfg); got != c.want {
			t.Errorf("case %d: key %s, want %s", i, got, c.want)
		}
	}
}

// TestConfigSpecWireBytes pins the JSON form of a fully populated
// ConfigSpec: field names, order, and omitempty behaviour are the
// POST /jobs and journal wire format, so they must not drift.
func TestConfigSpecWireBytes(t *testing.T) {
	var spec ConfigSpec
	v := reflect.ValueOf(&spec).Elem()
	for i, n := 0, 1; i < v.NumField(); i++ {
		if setNonZero(v.Field(i), n) {
			n++
		}
	}
	got, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"Threads":1,"Scale":2,"Seed":3,"Minnow":true,"Prefetch":true,"Credits":6,` +
		`"Scheduler":"v7","LgInterval":8,"HWPrefetcher":"v9","SplitThreshold":10,"WorkBudget":11,` +
		`"Serial":true,"MemChannels":13,"PerfectBP":true,"NoFences":true,"SkipVerify":true,` +
		`"TraceEvents":17,"MetricsEvery":18,"Timeline":true,"Profile":true,"Faults":"v21",` +
		`"Arrivals":"v22","Invariants":true,"MaxCycles":24,"IntraJobs":25,"EpochWindow":26,` +
		`"SharedHorizons":true}`
	if string(got) != want {
		t.Fatalf("wire bytes drifted:\n got %s\nwant %s", got, want)
	}
	var back ConfigSpec
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	if again, _ := json.Marshal(back); string(again) != want {
		t.Fatalf("wire bytes do not round-trip:\n got %s", again)
	}
	if b, _ := json.Marshal(ConfigSpec{}); string(b) != "{}" {
		t.Fatalf("zero spec marshals to %s, want {}", b)
	}
}

// TestCacheKeySchedulerResolution pins that Minnow ownership and the
// default software scheduler resolve before hashing.
func TestCacheKeySchedulerResolution(t *testing.T) {
	a, _ := CacheKey("SSSP", minnow.Config{Minnow: true})
	b, _ := CacheKey("SSSP", minnow.Config{Minnow: true, Scheduler: "minnow"})
	if a != b {
		t.Fatal("Minnow with implicit and explicit scheduler key differently")
	}
	if s, _ := CacheKey("SSSP", minnow.Config{Scheduler: "minnow"}); s != a {
		t.Fatal(`Scheduler "minnow" without Minnow keys differently from Minnow`)
	}
	c, _ := CacheKey("SSSP", minnow.Config{Scheduler: "obim"})
	d, _ := CacheKey("SSSP", minnow.Config{})
	if c != d {
		t.Fatal("default software scheduler keys differently from explicit obim")
	}
	if a == c {
		t.Fatal("minnow and obim schedulers share a key")
	}
}

// keyDocConfig decodes a key document, checks its version is 3, and
// returns its config object.
func keyDocConfig(t *testing.T, doc []byte) map[string]any {
	t.Helper()
	var m struct {
		V      int            `json:"v"`
		Config map[string]any `json:"config"`
	}
	if err := json.Unmarshal(doc, &m); err != nil {
		t.Fatalf("key doc is not JSON: %v", err)
	}
	if m.V != 3 {
		t.Fatalf("key doc version %d, want 3: %s", m.V, doc)
	}
	return m.Config
}

// TestCacheKeyDocRoundTrips checks the canonical document is valid JSON
// carrying the resolved values (the debuggable form stored in entries).
func TestCacheKeyDocRoundTrips(t *testing.T) {
	lg := uint(3)
	_, doc := CacheKey("SSSP", minnow.Config{LgInterval: &lg})
	if m := keyDocConfig(t, doc); m["Threads"] != float64(8) || m["LgInterval"] != float64(3) {
		t.Fatalf("key doc fields not resolved: %v", m)
	}
}

// TestCacheKeyArrivals pins the open-loop additions: the arrival plan
// keys verbatim (two plans differing only in their seed clause are
// different deterministic outcomes, so they must address different
// entries), and the arrival plan appears in the version-3 document.
// (Version 2 added arrivals, so pre-arrival entries re-key instead of
// colliding.)
func TestCacheKeyArrivals(t *testing.T) {
	closed, _ := CacheKey("SSSP", minnow.Config{Minnow: true, Prefetch: true})
	a, _ := CacheKey("SSSP", minnow.Config{Minnow: true, Prefetch: true, Arrivals: "seed=1;poisson:gap=600,count=400"})
	b, _ := CacheKey("SSSP", minnow.Config{Minnow: true, Prefetch: true, Arrivals: "seed=2;poisson:gap=600,count=400"})
	if a == closed {
		t.Fatal("arrival plan did not change the key")
	}
	if a == b {
		t.Fatal("arrival plans differing only in seed share a key")
	}
	_, doc := CacheKey("SSSP", minnow.Config{Minnow: true, Prefetch: true, Arrivals: "steady"})
	if m := keyDocConfig(t, doc); m["Arrivals"] != "steady" {
		t.Fatalf("key doc Arrivals = %v, want steady", m["Arrivals"])
	}
}

// TestJobQueueOrder pins the priority heap: higher priority first,
// submission order within a level.
func TestJobQueueOrder(t *testing.T) {
	q := &jobQueue{}
	for _, j := range []*job{
		{priority: 0, seq: 1},
		{priority: 5, seq: 2},
		{priority: 0, seq: 3},
		{priority: 5, seq: 4},
	} {
		heap.Push(q, j)
	}
	var got []int64
	for q.Len() > 0 {
		got = append(got, heap.Pop(q).(*job).seq)
	}
	want := []int64{2, 4, 1, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order = %v, want %v", got, want)
		}
	}
}
