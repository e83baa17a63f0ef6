package mpi_test

import (
	"reflect"
	"testing"

	"nbctune/internal/mpi"
	"nbctune/internal/nbc"
	"nbctune/internal/netmodel"
	"nbctune/internal/sim"
)

// TestProtocolRecordsHoldNoPointers holds every record whose count grows
// with the messages in flight to DESIGN.md §3 "Pooling": mpi's protocol
// records, notices and the matcher's chain and index slots, sim's event
// records, lane entries and deferred calls, and netmodel's transfer records.
// A record names its rank, process, lane, handler and every other record by
// index, and a protocol record names its real payload by its slot in the
// world's payload table, so the slab chunks, pools and index tables that hold
// them give the collector nothing to trace. sim's and netmodel's records are
// unexported; the walk reaches them through the types of the fields that
// hold them. nbc's schedule entries are walked too: an Op names its payload
// and its local work by index in its schedule's tables, so the op array that
// every rank's schedule is gives the collector nothing to trace either
// (DESIGN.md §3 "Schedules"). Buf keeps its one pointer, the payload's data,
// nil in a virtual run.
func TestProtocolRecordsHoldNoPointers(t *testing.T) {
	var walk func(typ reflect.Type, path string) []string
	walk = func(typ reflect.Type, path string) []string {
		switch typ.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Chan, reflect.Func,
			reflect.Interface, reflect.UnsafePointer, reflect.String:
			return []string{path + " (" + typ.Kind().String() + ")"}
		case reflect.Array:
			return walk(typ.Elem(), path+"[]")
		case reflect.Struct:
			var found []string
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				found = append(found, walk(f.Type, path+"."+f.Name)...)
			}
			return found
		}
		return nil
	}
	elem := func(v any, field string) reflect.Type {
		f, ok := reflect.TypeOf(v).FieldByName(field)
		if !ok {
			t.Fatalf("%T has no field %s", v, field)
		}
		return f.Type.Elem()
	}
	rxOp := elem(netmodel.Network{}, "rxs") // Slabs[rxOp] is a slice of Slab[rxOp]
	if f, ok := rxOp.FieldByName("chunk"); ok {
		rxOp = f.Type.Elem()
	} else {
		t.Fatal("netmodel.Slab has no field chunk")
	}
	// sim's lane pool is a set of chunks: its entry type is the element of a
	// chunk.
	lanePool, _ := reflect.TypeOf(sim.Engine{}).FieldByName("lanePool")
	laneEnt := elem(reflect.New(lanePool.Type).Elem().Interface(), "chunks").Elem()
	types := []reflect.Type{
		reflect.TypeOf(mpi.Request{}), reflect.TypeOf(mpi.Envelope{}), reflect.TypeOf(mpi.Xfer{}), reflect.TypeOf(mpi.Payload{}),
		reflect.TypeOf(mpi.Notice{}), reflect.TypeOf(mpi.ReqList{}), reflect.TypeOf(mpi.KeySlot{}),
		elem(sim.Engine{}, "recs"), laneEnt, elem(sim.Proc{}, "acts"), rxOp,
		reflect.TypeOf(sim.Pending{}), reflect.TypeOf(nbc.Op{}),
	}
	for _, typ := range types {
		for _, f := range walk(typ, typ.String()) {
			t.Errorf("%s: a pointer the collector must trace", f)
		}
	}
	if got := walk(reflect.TypeOf(mpi.Buf{}), "Buf"); len(got) != 1 {
		t.Errorf("Buf holds %v, want its data pointer alone", got)
	}
}
