package mpi

import (
	"reflect"
	"testing"
)

// TestProtocolRecordsHoldNoPointers holds the protocol records and the
// matcher's chain and index slots to DESIGN.md §3 "Pooling": a record names
// its rank by id and every other record by index, so the slab chunks and
// index tables that hold them give the collector nothing to trace. The one
// pointer allowed is the payload's: Buf's data pointer, nil in a virtual
// run, and Buf must hold no other.
func TestProtocolRecordsHoldNoPointers(t *testing.T) {
	buf := reflect.TypeOf(Buf{})
	var walk func(typ reflect.Type, path string, skipBuf bool) []string
	walk = func(typ reflect.Type, path string, skipBuf bool) []string {
		switch typ.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Chan, reflect.Func,
			reflect.Interface, reflect.UnsafePointer, reflect.String:
			return []string{path + " (" + typ.Kind().String() + ")"}
		case reflect.Array:
			return walk(typ.Elem(), path+"[]", skipBuf)
		case reflect.Struct:
			if skipBuf && typ == buf {
				return nil
			}
			var found []string
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				found = append(found, walk(f.Type, path+"."+f.Name, skipBuf)...)
			}
			return found
		}
		return nil
	}
	for _, v := range []any{Request{}, envelope{}, xfer{}, notice{}, reqList{}, keySlot{}} {
		typ := reflect.TypeOf(v)
		for _, f := range walk(typ, typ.Name(), true) {
			t.Errorf("%s: a pointer the collector must trace", f)
		}
	}
	if got := walk(buf, "Buf", false); len(got) != 1 {
		t.Errorf("Buf holds %v, want its data pointer alone", got)
	}
}
