package plan

import (
	"reflect"
	"strings"
	"testing"
)

var testGrammar = Grammar{
	Prefix:  "test",
	Presets: map[string]string{"one": "seed=4;a:n=1", "two": "b"},
	Clauses: []string{"a", "b"},
}

type folded struct {
	names []string
	n     []int64
	list  [][]int64
}

func (f *folded) clause(name string, a *Args) error {
	f.names = append(f.names, name)
	if name == "a" {
		f.n = append(f.n, a.Num("n", 7))
		a.Prob("p", 0)
		a.Pos("pos", 1)
		f.list = append(f.list, a.List("l", nil))
	}
	return nil
}

// TestParseFolds checks presets, clause order, last-seed-wins, defaults,
// and lists.
func TestParseFolds(t *testing.T) {
	for _, tc := range []struct {
		in   string
		seed uint64
		want folded
	}{
		{"one", 4, folded{names: []string{"a"}, n: []int64{1}, list: [][]int64{nil}}},
		{" seed=2 ; a ; ; b:; seed=3 ", 3, folded{names: []string{"a", "b"}, n: []int64{7}, list: [][]int64{nil}}},
		{"a: n = 5 , l=1+ 2+3", 0, folded{names: []string{"a"}, n: []int64{5}, list: [][]int64{{1, 2, 3}}}},
		{"seed=9", 9, folded{}},
	} {
		var f folded
		seed, err := testGrammar.Parse(tc.in, f.clause)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.in, err)
		}
		if seed != tc.seed || !reflect.DeepEqual(f, tc.want) {
			t.Errorf("Parse(%q) = seed %d, %+v; want seed %d, %+v", tc.in, seed, f, tc.seed, tc.want)
		}
	}
}

// TestParseErrors checks every rejection carries the grammar's prefix
// and names the fault.
func TestParseErrors(t *testing.T) {
	for in, want := range map[string]string{
		"":            "test: empty plan",
		"c:n=1":       `test: unknown clause "c" (have a, b, seed)`,
		"x=1":         `test: unknown clause "x"`,
		"seed=-1":     `test: bad seed "-1"`,
		"a:n":         `test: a: malformed argument "n"`,
		"a:n=1,n=2":   `test: a: duplicate key "n"`,
		"a:n=-1":      `test: a: n="-1" is not a non-negative integer`,
		"a:pos=0":     `test: a: pos="0" is not a positive integer`,
		"a:p=2,n=-1":  `test: a: n="-1" is not a non-negative integer`,
		"a:p=2":       `test: a: p="2" is not a probability in [0,1]`,
		"a:l=1+x":     `test: a: l="1+x" is not a +-separated list of non-negative integers`,
		"a:zz=1,yy=2": "test: a: unknown key(s) yy, zz",
		"b:n=1":       "test: b: unknown key(s) n",
		"a;b;a:n=1+2": `test: a: n="1+2" is not a non-negative integer`,
		"seed=1;c:x":  `test: c: malformed argument "x"`,
	} {
		_, err := testGrammar.Parse(in, new(folded).clause)
		if err == nil || err.Error() != want {
			t.Errorf("Parse(%q) error = %v, want %q", in, err, want)
		}
	}
}

// TestPresetNamesAndJoin checks the sorted preset list and that Join
// inverts List.
func TestPresetNamesAndJoin(t *testing.T) {
	if got := testGrammar.PresetNames(); !reflect.DeepEqual(got, []string{"one", "two"}) {
		t.Errorf("PresetNames() = %v", got)
	}
	if got := Join([]int32{3, 0, 12}); got != "3+0+12" {
		t.Errorf("Join = %q", got)
	}
	if got := Join([]int(nil)); got != "" {
		t.Errorf("Join(nil) = %q", got)
	}
	if !strings.Contains(Join([]int64{1 << 40}), "1099511627776") {
		t.Errorf("Join lost int64 range")
	}
}
