package sim

import (
	"slices"
	"testing"
)

// TestAdaptersKeepTheirPlace schedules every (fn, arg) adapter — At, AtCall
// and netmodel's Transfer, which boxes its callback and queues the box
// handler on the lane of the receiving channel (in order and as a fallback)
// — beside the handler form of each, all for one instant, and checks the
// firing order. An adapter draws its sequence number where the call is made,
// as a (fn, arg) event did before handlers existed, so the order is the order
// of the calls, and a lane's callbacks keep their keys. The same program
// written with (fn, arg) calls alone fires in this order, in as many events.
func TestAdaptersKeepTheirPlace(t *testing.T) {
	e := NewEngine(1)
	var lane, late Lane
	lane.Bind(e)
	late.Bind(e)
	var got []string
	names := []string{"late"}
	note := e.Handle(func(a, _ int32) { got = append(got, names[a]) })
	// id names a row of the handler form: note's first argument.
	id := func(name string) int32 {
		names = append(names, name)
		return int32(len(names) - 1)
	}
	call := func(arg any) { got = append(got, arg.(string)) }
	// transfer is what Network.Transfer schedules on the receiving lane.
	transfer := func(l *Lane, arg string) {
		h, a, b := e.Box(call, arg)
		l.AppendH(1, h, a, b)
	}
	e.At(1, func() { got = append(got, "At") })
	e.AtTimeH(1, note, id("AtTimeH"), 0)
	e.AtCall(1, call, "AtCall")
	transfer(&lane, "Transfer")
	lane.AppendH(1, note, id("Lane.AppendH"), 0)
	late.AppendH(2, note, 0, 0) // late's tail: what follows falls back
	transfer(&late, "fallback Transfer")
	late.AppendH(1, note, id("fallback AppendH"), 0)
	e.Run()
	want := []string{
		"At", "AtTimeH", "AtCall",
		"Transfer", "Lane.AppendH", "fallback Transfer", "fallback AppendH",
		"late",
	}
	if !slices.Equal(got, want) {
		t.Errorf("fired\n%q\nwant\n%q", got, want)
	}
	if e.LaneFallbacks != 2 || e.EventsFired != 8 {
		t.Errorf("%d lane fallbacks and %d events, want 2 and 8", e.LaneFallbacks, e.EventsFired)
	}
	if n := len(e.box.s) - len(e.box.free); n != 0 {
		t.Errorf("%d box slot(s) still held after the run", n)
	}
}
