package sim

import (
	"slices"
	"testing"
)

// TestAdaptersKeepTheirPlace schedules every (fn, arg) adapter — At, AtCall,
// AtTimeCall, InjectAt, Lane.Append (in order and as a fallback) and Proc.Do
// (level and ahead) — beside the handler form of each, all for one instant,
// and checks the firing order. An adapter draws its sequence number where the
// call is made, as a (fn, arg) event did before handlers existed, so the
// order is the order of the calls: the calls a level process makes run at
// once, the ones a process that is ahead defers run where its wake ticket
// was drawn, and a lane's callbacks keep their keys. The same program written
// with (fn, arg) calls alone fires in this order, in as many events.
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
	ahead := func(p *Proc, who string) {
		p.Advance(1)
		p.Do(call, who+" Do")
		p.DoH(note, id(who+" DoH"), 0)
		p.Sync()
	}
	e.Spawn("q", func(p *Proc) { ahead(p, "q") }) // parks first: its ticket leads t = 1
	e.Spawn("p", func(p *Proc) {
		p.Do(call, "level Do")
		p.DoH(note, id("level DoH"), 0)
		e.At(1, func() { got = append(got, "At") })
		e.AtTimeH(1, note, id("AtTimeH"), 0)
		e.AtCall(1, call, "AtCall")
		e.AtTimeCall(1, call, "AtTimeCall")
		e.InjectH(1, note, id("InjectH"), 0)
		e.InjectAt(1, call, "InjectAt")
		lane.Append(1, call, "Lane.Append")
		lane.AppendH(1, note, id("Lane.AppendH"), 0)
		late.AppendH(2, note, 0, 0) // late's tail: what follows falls back
		late.Append(1, call, "fallback Append")
		late.AppendH(1, note, id("fallback AppendH"), 0)
		ahead(p, "p")
	})
	e.Run()
	want := []string{
		"level Do", "level DoH",
		"q Do", "q DoH",
		"At", "AtTimeH", "AtCall", "AtTimeCall", "InjectH", "InjectAt",
		"Lane.Append", "Lane.AppendH", "fallback Append", "fallback AppendH",
		"p Do", "p DoH",
		"late",
	}
	if !slices.Equal(got, want) {
		t.Errorf("fired\n%q\nwant\n%q", got, want)
	}
	if e.LaneFallbacks != 2 || e.EventsFired != 15 {
		t.Errorf("%d lane fallbacks and %d events, want 2 and 15", e.LaneFallbacks, e.EventsFired)
	}
	if n := len(e.box.s) - len(e.box.free); n != 0 {
		t.Errorf("%d box slot(s) still held after the run", n)
	}
}
