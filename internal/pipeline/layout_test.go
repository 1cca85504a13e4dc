package pipeline

import (
	"reflect"
	"testing"

	"clgp/internal/cache"
)

// pointerFields returns the path of every field of t, at any depth, whose
// kind makes the garbage collector trace it: pointers, slices, maps,
// channels, functions, interfaces and strings.
func pointerFields(t reflect.Type, path string) []string {
	switch t.Kind() {
	case reflect.Struct:
		var out []string
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			out = append(out, pointerFields(f.Type, path+"."+f.Name)...)
		}
		return out
	case reflect.Array:
		return pointerFields(t.Elem(), path+"[]")
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
		return []string{path + " (" + t.Kind().String() + ")"}
	default:
		return nil
	}
}

// TestDynInstHoldsNoPointers guards the property the cycle loop's speed
// rests on: the instruction window and the cache tag stores are written on
// every cycle, and only while their elements hold no Go pointer do those
// stores skip the GC write barrier.
func TestDynInstHoldsNoPointers(t *testing.T) {
	ways, ok := reflect.TypeOf(cache.Cache{}).FieldByName("ways")
	if !ok || ways.Type.Kind() != reflect.Slice {
		t.Fatal("cache.Cache has no ways slice")
	}
	for _, c := range []struct {
		name string
		typ  reflect.Type
	}{
		{"pipeline.DynInst", reflect.TypeOf(DynInst{})},
		{"cache.way", ways.Type.Elem()},
	} {
		for _, f := range pointerFields(c.typ, c.name) {
			t.Errorf("%s holds a pointer-bearing field: %s", c.name, f)
		}
	}
}
