package harness

import (
	"flag"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

// flagName returns the flag RegisterFlags gives a Config field.
func flagName(f reflect.StructField) string {
	if name, _, _ := strings.Cut(f.Tag.Get("flag"), ","); name != "" {
		return name
	}
	return strings.ToLower(f.Name)
}

// setSample stores a non-zero value in a data field and returns its
// command-line form: 3 for numbers (through a pointer too), true for
// bools, "v3" for strings. It reports false for kinds it does not handle.
func setSample(f reflect.Value) (string, bool) {
	switch f.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		f.SetInt(3)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		f.SetUint(3)
	case reflect.Bool:
		f.SetBool(true)
	case reflect.String:
		f.SetString("v3")
	case reflect.Pointer:
		p := reflect.New(f.Type().Elem())
		if _, ok := setSample(p.Elem()); !ok {
			return "", false
		}
		f.Set(p)
	default:
		return "", false
	}
	return fmt.Sprint(reflect.Indirect(f)), true
}

// TestRegisterFlags is the generated check behind the flag table: for
// every Config data field, found by reflection, parsing -<name> <value>
// into a fresh FlagSet sets exactly that field, and every flag:"-" field
// is a function hook or an artifact switch minnowsim drives from its
// output paths.
func TestRegisterFlags(t *testing.T) {
	typ := reflect.TypeOf(Config{})
	seen := map[string]string{}
	for i := 0; i < typ.NumField(); i++ {
		field := typ.Field(i)
		name := flagName(field)
		if name == "-" {
			if field.Type.Kind() != reflect.Func && field.Name != "Timeline" && field.Name != "Profile" {
				t.Errorf("%s: flag:\"-\" on a data field", field.Name)
			}
			continue
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("%s: flag -%s already names %s", field.Name, name, prev)
		}
		seen[name] = field.Name
		var want Config
		arg, ok := setSample(reflect.ValueOf(&want).Elem().Field(i))
		if !ok {
			t.Errorf("%s: unhandled field kind %s", field.Name, field.Type.Kind())
			continue
		}
		var got Config
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		RegisterFlags(fs, &got)
		if err := fs.Parse([]string{"-" + name + "=" + arg}); err != nil {
			t.Errorf("%s: -%s=%s: %v", field.Name, name, arg, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: -%s=%s set %+v, want %+v", field.Name, name, arg, got, want)
		}
	}
}

// TestRegisterFlagsDefaults pins the caller-facing rules: flag defaults
// come from the struct passed in, a zero value that resolves to
// something else shows the resolved value in its usage, and a name the
// caller already defined is left to the caller.
func TestRegisterFlagsDefaults(t *testing.T) {
	cfg := Config{SplitThreshold: 512, Prefetch: true}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	threads := fs.String("threads", "8", "comma-separated thread counts")
	RegisterFlags(fs, &cfg)
	if err := fs.Parse([]string{"-threads=2,4", "-channels=4"}); err != nil {
		t.Fatal(err)
	}
	if *threads != "2,4" || cfg.Threads != 0 {
		t.Fatalf("caller's -threads not kept: flag %q, Threads %d", *threads, cfg.Threads)
	}
	if want := (Config{SplitThreshold: 512, Prefetch: true, MemChannels: 4}); !reflect.DeepEqual(cfg, want) {
		t.Fatalf("parsed %+v, want %+v", cfg, want)
	}
	for name, def := range map[string]string{"split": "512", "prefetch": "true"} {
		if got := fs.Lookup(name).DefValue; got != def {
			t.Errorf("-%s default %q, want %q", name, got, def)
		}
	}
	for name, suffix := range map[string]string{"channels": "(default 12)", "credits": "(default 32)", "sched": `(default "obim")`} {
		if u := fs.Lookup(name).Usage; !strings.HasSuffix(u, suffix) {
			t.Errorf("-%s usage %q does not end in the resolved %s", name, u, suffix)
		}
	}
}
