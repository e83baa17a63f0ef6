package sim

import (
	"fmt"
	"testing"
)

// The equivalence oracle of the run-ahead protocol: a small program is run
// twice on fresh engines, once eagerly — every Advance read as a Sleep, every
// DoH as an inline call, every poll as a loop around Cond.Wait — and once
// running ahead, and both runs must fire the same things at the same times in
// the same order and end with the same clock and event count. Coalescing
// stops into fewer events, or scheduling a stop at now + Σd instead of at the
// sequentially accumulated clock, reorders exact-time ties and fails it.
//
// A program is read two bytes at a time: the process (byte % 8, so '0'..'7'
// name themselves) and one of its next operations (byte % 32, 'a'..'s'; the
// other values are no-ops):
//
//	a b c     advance 1, 2, 3          (exact sums: 1+2 and 3 tie)
//	d e f     advance 0.1, 0.2, 0.3    (0.1+0.2 and 0.3 differ in the last bit)
//	g h p     do: log, then schedule a callback 0, 1 or 0.1 later that counts,
//	          hands the next process a work item and broadcasts the cond
//	i         sync
//	j k l     block until the count reaches 1, 2, 3, processing work items —
//	          advance 0.5, do a logging call — whenever woken (mpi's waitUntil)
//	m n o     plain sleep 1, 0.3, 0.5
//	q r s     block as j k l, but once the count holds the poll goes on with
//	          the ops that follow, in event context: advances and calls, and
//	          the waits of further q r s, which it re-arms in place — up to
//	          the first other op, or the end (mpi's WaitSteps). Read eagerly,
//	          the same ops run in process context after the wait returns. An
//	          itinerary can grow past maxAhead there.

type raKind uint8

const (
	raNop raKind = iota // the values no letter names
	raAdvance
	raDo
	raSync
	raBlock
	raSleep
	raBlockOn // a block whose poll continues with the ops after it
)

var raOps = [32]struct {
	kind raKind
	d    Time // duration, callback delay, or count to block for
}{
	'a' % 32: {raAdvance, 1}, 'b' % 32: {raAdvance, 2}, 'c' % 32: {raAdvance, 3},
	'd' % 32: {raAdvance, 0.1}, 'e' % 32: {raAdvance, 0.2}, 'f' % 32: {raAdvance, 0.3},
	'g' % 32: {raDo, 0}, 'h' % 32: {raDo, 1}, 'p' % 32: {raDo, 0.1},
	'i' % 32: {raSync, 0},
	'j' % 32: {raBlock, 1}, 'k' % 32: {raBlock, 2}, 'l' % 32: {raBlock, 3},
	'm' % 32: {raSleep, 1}, 'n' % 32: {raSleep, 0.3}, 'o' % 32: {raSleep, 0.5},
	'q' % 32: {raBlockOn, 1}, 'r' % 32: {raBlockOn, 2}, 's' % 32: {raBlockOn, 3},
}

// raWorld is what the processes of one run share.
type raWorld struct {
	e     *Engine
	ahead bool // run ahead; false reads the program eagerly
	cond  *Cond
	count int   // callbacks fired
	work  []int // per process: items handed over and not yet processed
	log   []string
	act   Handler   // raAct on calls[a]
	calls []*raCall // the deferred calls, named by index
}

func (w *raWorld) note(t Time, who int, what string) {
	w.log = append(w.log, fmt.Sprintf("%v p%d %s", t, who, what))
}

// raCall is the argument of a deferred call and of the callback it schedules.
type raCall struct {
	w     *raWorld
	who   int
	delay Time
	quiet bool // the callback only logs (calls made while processing work)
}

func raAct(arg any) {
	c := arg.(*raCall)
	c.w.note(c.w.e.Now(), c.who, "call")
	c.w.e.AtCall(c.delay, raCallback, c)
}

func raCallback(arg any) {
	c := arg.(*raCall)
	w := c.w
	w.note(w.e.Now(), c.who, "callback")
	if c.quiet {
		return
	}
	w.count++
	w.work[(c.who+1)%len(w.work)]++
	w.cond.Broadcast()
}

// body returns the process body executing ops as process who.
func (w *raWorld) body(who int, ops []byte) func(*Proc) {
	return func(p *Proc) {
		advance := func(d Time) {
			if w.ahead {
				p.Advance(d)
			} else {
				p.Sleep(d)
			}
		}
		do := func(delay Time, quiet bool) {
			c := &raCall{w: w, who: who, delay: delay, quiet: quiet}
			if w.ahead {
				w.calls = append(w.calls, c)
				p.DoH(w.act, int32(len(w.calls)-1), 0)
			} else {
				raAct(c)
			}
		}
		// process handles the queued work items; inside a poll it gives up
		// when the itinerary is full.
		process := func() bool {
			for w.work[who] > 0 {
				if w.ahead && p.Full() {
					return false
				}
				w.work[who]--
				advance(0.5)
				do(0, true)
			}
			return true
		}
		for pc := 0; pc < len(ops); {
			o := raOps[ops[pc]]
			pc++
			switch o.kind {
			case raAdvance:
				advance(o.d)
			case raDo:
				do(o.d, false)
			case raSync:
				p.Sync()
				w.note(p.Now(), who, "level")
			case raSleep:
				p.Sleep(o.d)
				w.note(p.Now(), who, "slept")
			case raBlock, raBlockOn:
				if !w.ahead {
					for {
						process()
						if w.count >= int(o.d) {
							break
						}
						w.cond.Wait(p)
					}
					w.note(p.Now(), who, "woke")
					continue
				}
				p.ParkUntil(func() bool {
					for {
						if !process() || p.Ahead() {
							return false
						}
						if w.count < int(o.d) {
							w.cond.Block(p)
							return false
						}
						w.note(p.Now(), who, "woke")
						if o.kind != raBlockOn {
							return true
						}
						// Go on with the ops that follow, up to the next
						// wait, which is re-armed here, or the first op
						// this context cannot run.
						for o.kind = raNop; pc < len(ops) && o.kind == raNop; {
							switch n := raOps[ops[pc]]; n.kind {
							case raAdvance:
								advance(n.d)
							case raDo:
								do(n.d, false)
							case raBlockOn:
								o = n
							case raNop:
							default:
								return true
							}
							pc++
						}
						if o.kind == raNop {
							return true
						}
					}
				})
			}
		}
	}
}

// runRunAhead runs the program one way and returns what fired, in order,
// and how the run ended: final clock and event count, or the deadlock report.
func runRunAhead(prog [][]byte, ahead bool) (log []string, outcome string) {
	e := NewEngine(1)
	w := &raWorld{e: e, ahead: ahead, cond: NewCond(e), work: make([]int, len(prog))}
	w.act = e.Handle(func(i, _ int32) { raAct(w.calls[i]) })
	for who, ops := range prog {
		e.Spawn(fmt.Sprintf("p%d", who), w.body(who, ops))
	}
	defer func() {
		log = w.log
		if r := recover(); r != nil {
			outcome = fmt.Sprintf("%v events=%d", r, e.EventsFired)
		}
	}()
	end := e.Run()
	return nil, fmt.Sprintf("end=%v events=%d", end, e.EventsFired)
}

func FuzzRunAhead(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 { // 128 operations: two itineraries can fill up
			data = data[:256]
		}
		var prog [][]byte
		for i := 0; i+1 < len(data); i += 2 {
			who := int(data[i] % 8)
			for len(prog) <= who {
				prog = append(prog, nil)
			}
			prog[who] = append(prog[who], data[i+1]%32)
		}
		eagerLog, eagerEnd := runRunAhead(prog, false)
		aheadLog, aheadEnd := runRunAhead(prog, true)
		if eagerEnd != aheadEnd {
			t.Errorf("eager run: %s\nrun-ahead: %s", eagerEnd, aheadEnd)
		}
		sameLogs(t, "eager", eagerLog, "run-ahead", aheadLog)
	})
}

// sameLogs fails the test at the first entry in which two runs' logs differ.
func sameLogs(t *testing.T, nameA string, a []string, nameB string, b []string) {
	t.Helper()
	for i := 0; i < len(a) || i < len(b); i++ {
		var x, y string
		if i < len(a) {
			x = a[i]
		}
		if i < len(b) {
			y = b[i]
		}
		if x != y {
			t.Fatalf("logs differ at entry %d of %d/%d: %s %q, %s %q", i, len(a), len(b), nameA, x, nameB, y)
		}
	}
}
