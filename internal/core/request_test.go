package core

import (
	"path/filepath"
	"testing"

	"nbctune/internal/kb"
)

// clockFns builds a function set whose implementations advance a fake clock
// by fixed costs when started (blocking semantics, nil Started).
func clockFns(clock *float64, costs ...float64) *FunctionSet {
	fs := &FunctionSet{Name: "clockset"}
	for i, c := range costs {
		c := c
		fs.Fns = append(fs.Fns, &Function{
			Name:  "impl" + itoa(i),
			Start: func() Started { *clock += c; return nil },
		})
	}
	return fs
}

// runOnce executes the operation blocking: one self-timed Init..Wait interval.
func runOnce(r *Request) {
	r.Init()
	r.Wait()
}

func TestRequestSelfTimingConverges(t *testing.T) {
	clock := 0.0
	now := func() float64 { return clock }
	fs := clockFns(&clock, 3.0, 1.0, 2.0)
	req := MustRequest(fs, NewBruteForce(len(fs.Fns), 3), now)
	for i := 0; i < 20; i++ {
		runOnce(req)
	}
	if !req.Decided() {
		t.Fatal("request never decided")
	}
	if req.Winner().Name != "impl1" {
		t.Fatalf("winner = %s, want impl1", req.Winner().Name)
	}
}

func TestRequestTimerBasedMeasurement(t *testing.T) {
	// The operation itself is free, but implementations differ in how much
	// "interference" they cause in the surrounding region — visible only to
	// the timer, exactly the non-blocking measurement problem of §III-D.
	clock := 0.0
	now := func() float64 { return clock }
	interference := []float64{5.0, 1.0}
	fs := &FunctionSet{Name: "overlap"}
	var pendingCost float64
	for i, c := range interference {
		c := c
		fs.Fns = append(fs.Fns, &Function{
			Name:  "impl" + itoa(i),
			Start: func() Started { pendingCost = c; return nil },
		})
	}
	req := MustRequest(fs, NewBruteForce(len(fs.Fns), 4), now)
	timer := MustTimer(now, req)
	for i := 0; i < 12; i++ {
		timer.Start()
		req.Init()
		clock += pendingCost // the region cost depends on the implementation
		req.Wait()
		timer.Stop()
	}
	if !req.Decided() || req.Winner().Name != "impl1" {
		t.Fatalf("timer-based tuning picked %v", req.Winner())
	}
}

func TestTimerLockstepSharedSelector(t *testing.T) {
	// Two requests (a window of operations) share one selector: they must
	// use the same implementation each iteration and consume one measurement
	// per interval.
	clock := 0.0
	now := func() float64 { return clock }
	fsA := clockFns(&clock, 2.0, 1.0)
	fsB := clockFns(&clock, 2.0, 1.0)
	sel := NewBruteForce(2, 3)
	ra := MustRequest(fsA, sel, now)
	rb := MustRequest(fsB, sel, now)
	timer := MustTimer(now, ra, rb)
	for i := 0; i < 10; i++ {
		timer.Start()
		ra.Init()
		rb.Init()
		if ra.curFn != rb.curFn {
			t.Fatalf("iteration %d: requests diverged: fn %d vs %d", i, ra.curFn, rb.curFn)
		}
		ra.Wait()
		rb.Wait()
		timer.Stop()
	}
	if !ra.Decided() || ra.Winner().Name != "impl1" {
		t.Fatal("lockstep tuning failed")
	}
	if sel.Evals() != 6 {
		t.Fatalf("selector consumed %d evals, want 6 (one per interval)", sel.Evals())
	}
}

func TestTimerCoTuningSequential(t *testing.T) {
	// Two requests with separate selectors: they must learn one after the
	// other, and both converge to their own best implementation.
	clock := 0.0
	now := func() float64 { return clock }
	fsA := clockFns(&clock, 3.0, 1.0) // best: impl1
	fsB := clockFns(&clock, 1.0, 4.0) // best: impl0
	selA := NewBruteForce(2, 3)
	selB := NewBruteForce(2, 3)
	ra := MustRequest(fsA, selA, now)
	rb := MustRequest(fsB, selB, now)
	timer := MustTimer(now, ra, rb)
	for i := 0; i < 30; i++ {
		timer.Start()
		ra.Init()
		ra.Wait()
		rb.Init()
		rb.Wait()
		timer.Stop()
		// While A is undecided, B must not consume measurements.
		if !ra.Decided() && selB.Evals() > 0 {
			t.Fatal("co-tuning not sequential: B learned while A undecided")
		}
	}
	if !ra.Decided() || !rb.Decided() {
		t.Fatalf("co-tuning did not converge: A=%v B=%v", ra.Decided(), rb.Decided())
	}
	if ra.Winner().Name != "impl1" || rb.Winner().Name != "impl0" {
		t.Fatalf("winners: A=%s B=%s", ra.Winner().Name, rb.Winner().Name)
	}
}

func TestRequestMisuse(t *testing.T) {
	clock := 0.0
	now := func() float64 { return clock }
	fs := clockFns(&clock, 1.0)

	if _, err := NewRequest(&FunctionSet{Name: "empty"}, NewBruteForce(1, 1), now); err == nil {
		t.Error("empty function set accepted")
	}
	req := MustRequest(fs, NewBruteForce(1, 1), now)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Wait without Init did not panic")
			}
		}()
		req.Wait()
	}()
	timer := MustTimer(now, req)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Stop without Start did not panic")
			}
		}()
		timer.Stop()
	}()
	if _, err := NewTimer(now, req); err == nil {
		t.Error("double timer association accepted")
	}
}

func TestBlockingFunctionInSet(t *testing.T) {
	// A blocking implementation (nil Started) must flow through the request
	// machinery: Wait is a no-op, progress harmless.
	clock := 0.0
	now := func() float64 { return clock }
	fs := clockFns(&clock, 2.0)
	req := MustRequest(fs, &FixedSelector{Fn: 0}, now)
	req.Init()
	req.Progress()
	req.Wait()
	if clock != 2.0 {
		t.Fatalf("clock = %g", clock)
	}
}

func TestDecidedAtRecorded(t *testing.T) {
	clock := 0.0
	now := func() float64 { return clock }
	fs := clockFns(&clock, 2.0, 1.0)
	req := MustRequest(fs, NewBruteForce(2, 2), now)
	for i := 0; i < 10; i++ {
		runOnce(req)
	}
	if !req.Decided() {
		t.Fatal("not decided")
	}
	// 4 learning executions at costs 2+1+2+1 = 6; decision observed on the
	// 5th Init.
	if req.DecidedAt() != 6 {
		t.Fatalf("DecidedAt = %g, want 6", req.DecidedAt())
	}
}

func TestSelectorWithHistorySkipsLearning(t *testing.T) {
	clock := 0.0
	now := func() float64 { return clock }
	fs := clockFns(&clock, 5.0, 1.0)
	h := kb.NewStore(kb.StoreOptions{})
	key := HistoryKey("clockset", "test", 2, 0)
	h.Put(kb.Record{Key: key, Winner: "impl1"})
	sel, hit := SelectorWithHistory(h, key, "", fs, NewBruteForce(2, 5))
	if !hit {
		t.Fatal("history miss")
	}
	req := MustRequest(fs, sel, now)
	runOnce(req)
	if !req.Decided() || req.Winner().Name != "impl1" || clock != 1.0 {
		t.Fatalf("history-driven request: decided=%v winner=%v clock=%g",
			req.Decided(), req.Winner(), clock)
	}
	// Unknown function name in history -> fall back.
	h.Put(kb.Record{Key: key, Winner: "gone"})
	_, hit = SelectorWithHistory(h, key, "", fs, NewBruteForce(2, 5))
	if hit {
		t.Fatal("stale history entry should miss")
	}
}

// TestHistoryKeepsEveryEnvironment: a scenario's outcomes under different
// environments live side by side in one store — through a flush and a load
// of its -history file — and a later record for one never evicts another's.
func TestHistoryKeepsEveryEnvironment(t *testing.T) {
	key := HistoryKey("ibcast", "crill", 16, 1<<21)
	chaos := EnvFingerprint("flat", "congested", 1)
	path := filepath.Join(t.TempDir(), "h.json")
	h := kb.NewStore(kb.StoreOptions{SnapshotPath: path})
	h.Put(kb.Record{Key: key, Winner: "clean-winner"})
	h.Put(kb.Record{Key: key, Env: chaos, Winner: "chaos-winner", Evals: 9})
	if err := h.Flush(false); err != nil {
		t.Fatal(err)
	}
	h, err := kb.Open(kb.StoreOptions{SnapshotPath: path})
	if err != nil {
		t.Fatal(err)
	}
	h.Put(kb.Record{Key: key, Winner: "clean-again"})
	for env, want := range map[string]kb.Record{
		"":    {Key: key, Winner: "clean-again"},
		chaos: {Key: key, Env: chaos, Winner: "chaos-winner", Evals: 9},
	} {
		if r, ok := h.Lookup(key, env); !ok || r != want {
			t.Errorf("env %q: got %+v (hit=%v), want %+v", env, r, ok, want)
		}
	}
}

func TestFunctionSetValidate(t *testing.T) {
	ok := fakeSet([]int{0, 1})
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	dup := fakeSet([]int{0, 1}, []int{0, 1})
	dup.Fns[3].Name = dup.Fns[1].Name
	dup.Fns[3].Attrs = []int{99, 99} // the first fault is the name
	want := `adcl: duplicate function name "` + dup.Fns[1].Name + `"`
	if err := dup.Validate(); err == nil || err.Error() != want {
		t.Errorf("duplicate names: error %v, want %s", err, want)
	}
	bad := fakeSet([]int{0, 1})
	bad.Fns[0].Attrs = []int{99}
	if err := bad.Validate(); err == nil {
		t.Error("invalid attribute value accepted")
	}
	short := fakeSet([]int{0, 1})
	short.Fns[0].Attrs = nil
	if err := short.Validate(); err == nil {
		t.Error("missing attribute vector accepted")
	}
}

func TestFindFunctionAndIndexOf(t *testing.T) {
	fs := fakeSet([]int{0, 1}, []int{5, 6})
	if i := fs.FindFunction([]int{1, 6}); i < 0 || fs.Fns[i].Attrs[0] != 1 || fs.Fns[i].Attrs[1] != 6 {
		t.Fatalf("FindFunction = %d", i)
	}
	if fs.FindFunction([]int{9, 9}) != -1 {
		t.Fatal("found nonexistent function")
	}
	if fs.IndexOf(fs.Fns[2].Name) != 2 {
		t.Fatal("IndexOf wrong")
	}
	if fs.IndexOf("zzz") != -1 {
		t.Fatal("IndexOf found nonexistent")
	}
}
