package journal

import (
	"bufio"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// marshalForms, FuzzDecode's seeds, is one record of every form the
// journal holds: the live lifecycle records, a failure whose error
// needs escapes, and a folded terminal record.
var marshalForms = []Record{
	{Op: OpSubmit, ID: "j-1", Bench: "SSSP", Key: "5d41402abc4b2a76b9719d911017c592", Priority: -3,
		At: 1760000000123456789, Corr: "c-j-1",
		Spec: json.RawMessage(`{"Threads":2,"Seed":3,"Minnow":true,"Prefetch":true,"Faults":"noc-delay:p=0.001,cycles=1","X":[1.5e-3,null,{}],"Y":[]}`)},
	{Op: OpStart, ID: "j-1", At: 1760000000223456789},
	{Op: OpCheckpoint, ID: "j-1", At: 1760000000323456789, Cycles: 8340000, Samples: 417},
	{Op: OpDone, ID: "j-1", At: 1760000000423456789, StartAt: 1760000000223456789, Cycles: 8345678, Hash: "9f86d081884c7d65"},
	{Op: OpFailed, ID: "j-2", At: 1760000000523456789, Error: "sim: \"bad\" config\n\tat <core 3> é"},
	{Op: OpCanceled, ID: "j-3", At: 1760000000623456789, Error: "service: canceled by client"},
	{Op: OpCanceled, ID: "j-4", Bench: "BFS", Key: "7d793037a0760186574b0282f2f435e7", Priority: math.MaxInt,
		At: 1760000000723456789, Corr: "c-j-4", StartAt: 1760000000700000000, SubmitAt: 1760000000600000000,
		Cycles: 1, Error: "service: canceled by client"},
}

// FuzzDecode holds decode to json.Unmarshal: for any line it succeeds
// exactly when json.Unmarshal does, with an Equal record, and whenever
// the strict path accepts a line json.Unmarshal accepts it too and
// agrees.
func FuzzDecode(f *testing.F) {
	for _, r := range marshalForms {
		b, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		for _, cut := range []int{1, len(b) / 2, len(b) - 1} {
			f.Add(b[:cut]) // torn
		}
	}
	for _, s := range []string{
		``, `{}`, `null`, `[]`, `"x"`, `{"op":"done"}}`, `{"op":"done",}`,
		`{"op":"done","id":"j-1","at":01}`,
		`{"op":"done","id":"j-1","at":1e3}`,
		`{"op":"done","id":"j-1","at":1.0}`,
		`{"op":"done","id":"j-1","at":-0}`,
		`{"op":"done","id":"j-1","at":-9223372036854775808}`,
		`{"op":"done","id":"j-1","at":9223372036854775808}`,
		`{"op":"done","id":"j-1","at":"1"}`,
		`{"op":"done","id":"j-1","priority":-9223372036854775809}`,
		`{ "op":"done","id":"j-1"}`,
		`{"op": "done","id":"j-1"}`,
		`{"op":"done","id":"j-1"} `,
		`{"OP":"done","id":"j-1"}`,
		`{"Op":"done","ID":"j-1"}`,
		`{"op":"DONE","id":"j-1"}`,
		`{"op":"","id":""}`,
		`{"op":null,"id":"j-1"}`,
		`{"op":"done","id":"j-1","spec":null}`,
		`{"op":"done","id":"j-1","spec":"x"}`,
		`{"op":"done","id":"j-1","spec":[1,]}`,
		`{"op":"done","id":"j-1","id":"j-2"}`,
		`{"op":"done","id":"j-1","op":"failed"}`,
		`{"op":"done","id":"j-1","unknown":1}`,
		`{"op":"done","id":"j\u002d1"}`,
		`{"op":"d\u006fne","id":"j-1"}`,
		`{"op":"done","id":"j-1","error":"é"}`,
		`{"op":"done","id":"j-1","error":"` + "\xff" + `"}`,
		`{"op":"done","id":"j-1","error":"` + "\x7f" + `"}`,
		`{"op":"done","id":"j-1","error":"` + "\t" + `"}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var want Record
		werr := json.Unmarshal(line, &want)
		var got Record
		err := decode(line, &got)
		if (err == nil) != (werr == nil) {
			t.Fatalf("decode(%q) error %v, json.Unmarshal error %v", line, err, werr)
		}
		if err == nil && !got.Equal(want) {
			t.Fatalf("decode(%q) = %+v, json.Unmarshal = %+v", line, got, want)
		}
		var strict Record
		if decodeStrict(line, &strict) && (werr != nil || !strict.Equal(want)) {
			t.Fatalf("strict path accepted %q as %+v; json.Unmarshal gives %+v, %v", line, strict, want, werr)
		}
	})
}

// TestStrictSeesEveryField pins the strict path against the struct:
// each Record field but Spec, set alone and marshalled, decodes on the
// strict path, so a field added later fails here rather than sending
// every line through json.Unmarshal.
func TestStrictSeesEveryField(t *testing.T) {
	typ := reflect.TypeOf(Record{})
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).Name == "Spec" {
			continue
		}
		var r Record
		f := reflect.ValueOf(&r).Elem().Field(i)
		switch {
		case f.Type() == reflect.TypeOf(Op("")):
			f.Set(reflect.ValueOf(OpCheckpoint))
		case f.Kind() == reflect.String:
			f.SetString("x")
		case f.Kind() == reflect.Int || f.Kind() == reflect.Int64:
			f.SetInt(-12345)
		default:
			t.Fatalf("field %s: kind %s not covered", typ.Field(i).Name, f.Kind())
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		var got Record
		if !decodeStrict(b, &got) || !got.Equal(r) {
			t.Errorf("field %s: strict path declined or misread %s (got %+v)", typ.Field(i).Name, b, got)
		}
	}
}

// TestLineReaderMatchesScanLines pins lineReader's split to
// bufio.ScanLines's, over a read buffer small enough that some lines
// outgrow it.
func TestLineReaderMatchesScanLines(t *testing.T) {
	long := strings.Repeat("y", 100)
	for _, in := range []string{
		"", "\n", "\n\n", "a", "a\n", "a\r\n", "a\r", "\r", "\r\n\r\n",
		"a\nb", "a\n\nb\n", "a\r\nb\r\n", long, long + "\n", long + "\r\n" + long,
		"x\n" + long + "\r\n\n" + long + "z",
	} {
		var want []string
		sc := bufio.NewScanner(strings.NewReader(in))
		for sc.Scan() {
			want = append(want, sc.Text())
		}
		var got []string
		lr := lineReader{r: bufio.NewReaderSize(strings.NewReader(in), 16)}
		for {
			line, err := lr.next()
			if err != nil {
				break
			}
			got = append(got, string(line))
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("lines of %q = %q, want %q", in, got, want)
		}
	}
}
