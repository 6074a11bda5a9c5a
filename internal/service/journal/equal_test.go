package journal

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestEqualSeesEveryField pins Record.Equal against the struct: a
// difference in any one field, including one added later, makes two
// records unequal. The service's startup compaction relies on it to
// decide that the journal needs no rewrite.
func TestEqualSeesEveryField(t *testing.T) {
	var zero Record
	if !zero.Equal(Record{}) {
		t.Fatal("zero records unequal")
	}
	typ := reflect.TypeOf(zero)
	for i := 0; i < typ.NumField(); i++ {
		r := zero
		f := reflect.ValueOf(&r).Elem().Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString("x")
		case reflect.Int, reflect.Int64:
			f.SetInt(1)
		case reflect.Slice:
			f.Set(reflect.ValueOf(json.RawMessage(`1`)))
		default:
			t.Fatalf("field %s: kind %s not covered", typ.Field(i).Name, f.Kind())
		}
		if r.Equal(zero) || zero.Equal(r) {
			t.Errorf("Equal ignores field %s", typ.Field(i).Name)
		}
	}
}
