package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// fakeSet builds a function set with dummy start routines and a full
// factorial attribute grid; cost is supplied by tests via Record.
func fakeSet(attrVals ...[]int) *FunctionSet {
	attrs := make([]Attribute, len(attrVals))
	for i, vs := range attrVals {
		attrs[i] = Attribute{Name: string(rune('a' + i)), Values: vs}
	}
	fs := &FunctionSet{Name: "fake", AttrSet: &AttributeSet{Attrs: attrs}}
	var build func(prefix []int)
	build = func(prefix []int) {
		if len(prefix) == len(attrVals) {
			vals := append([]int(nil), prefix...)
			name := "f"
			for _, v := range vals {
				name += "-" + itoa(v)
			}
			fs.Fns = append(fs.Fns, &Function{Name: name, Attrs: vals, Start: func() Started { return nil }})
			return
		}
		for _, v := range attrVals[len(prefix)] {
			build(append(prefix, v))
		}
	}
	build(nil)
	return fs
}

func itoa(v int) string {
	if v < 0 {
		return "m" + itoa(-v)
	}
	if v < 10 {
		return string(rune('0' + v))
	}
	return itoa(v/10) + itoa(v%10)
}

// drive runs a selector to decision against a cost oracle.
func drive(t *testing.T, sel Selector, cost func(fn int) float64, maxIters int) int {
	t.Helper()
	for i := 0; i < maxIters; i++ {
		fn, decided := sel.Next()
		if decided {
			return sel.Winner()
		}
		sel.Record(fn, cost(fn))
	}
	t.Fatalf("selector %s did not decide within %d iterations", sel.Name(), maxIters)
	return -1
}

func TestBruteForceFindsMinimum(t *testing.T) {
	costs := []float64{5, 3, 9, 1, 7}
	sel := NewBruteForce(len(costs), 4)
	w := drive(t, sel, func(fn int) float64 { return costs[fn] }, 1000)
	if w != 3 {
		t.Fatalf("winner = %d, want 3", w)
	}
	if sel.Evals() != 4*len(costs) {
		t.Fatalf("evals = %d, want %d", sel.Evals(), 4*len(costs))
	}
}

func TestBruteForceRoundRobinOrder(t *testing.T) {
	sel := NewBruteForce(3, 2)
	var order []int
	for {
		fn, decided := sel.Next()
		if decided {
			break
		}
		order = append(order, fn)
		sel.Record(fn, 1)
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestBruteForceRobustToOutliers(t *testing.T) {
	// fn 0 is truly fastest but one sample spikes; fn 1 is steady but slower.
	samples := map[int][]float64{
		0: {1.0, 1.0, 1.0, 1.0, 1.0, 50.0, 1.0, 1.0},
		1: {1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5},
	}
	sel := NewBruteForce(2, 8)
	idx := map[int]int{}
	w := drive(t, sel, func(fn int) float64 {
		v := samples[fn][idx[fn]]
		idx[fn]++
		return v
	}, 100)
	if w != 0 {
		t.Fatalf("outlier filtering failed: winner = %d, want 0", w)
	}
}

func TestFixedSelector(t *testing.T) {
	sel := &FixedSelector{Fn: 7}
	fn, decided := sel.Next()
	if fn != 7 || !decided || sel.Winner() != 7 || sel.Evals() != 0 {
		t.Fatal("fixed selector misbehaves")
	}
}

func TestAttrHeuristicSeparableLandscape(t *testing.T) {
	// cost = |fanout-3|*10 + segpenalty; optimum at fanout=3, seg=64.
	fs := fakeSet([]int{-1, 0, 1, 2, 3, 4, 5}, []int{32, 64, 128})
	cost := func(fn int) float64 {
		f := fs.Fns[fn].Attrs[0]
		s := fs.Fns[fn].Attrs[1]
		c := float64((f-3)*(f-3)) * 10
		switch s {
		case 32:
			c += 5
		case 64:
			c += 0
		case 128:
			c += 3
		}
		return c + 100
	}
	sel := NewAttrHeuristic(fs, 3)
	w := drive(t, sel, cost, 10000)
	if fs.Fns[w].Attrs[0] != 3 || fs.Fns[w].Attrs[1] != 64 {
		t.Fatalf("heuristic picked %s", fs.Fns[w].Name)
	}
	// The heuristic must be cheaper than brute force: it touches one slice
	// per attribute instead of the full grid.
	bf := NewBruteForce(len(fs.Fns), 3)
	drive(t, bf, cost, 10000)
	if sel.Evals() >= bf.Evals() {
		t.Fatalf("heuristic evals %d not cheaper than brute force %d", sel.Evals(), bf.Evals())
	}
}

func TestAttrHeuristicNoAttrsFallsBack(t *testing.T) {
	fs := &FunctionSet{Name: "plain", Fns: []*Function{
		{Name: "a", Start: func() Started { return nil }},
		{Name: "b", Start: func() Started { return nil }},
	}}
	sel := NewAttrHeuristic(fs, 2)
	if sel.Name() != "brute-force" {
		t.Fatalf("expected brute-force fallback, got %s", sel.Name())
	}
}

func TestFactorial2KPinsStrongFactor(t *testing.T) {
	// Strong effect on attr0, negligible on attr1.
	fs := fakeSet([]int{0, 1}, []int{0, 1, 2})
	cost := func(fn int) float64 {
		c := 100.0
		if fs.Fns[fn].Attrs[0] == 0 {
			c += 50 // attr0 low level is terrible
		}
		c += float64(fs.Fns[fn].Attrs[1]) * 0.5 // weak preference for low attr1
		return c
	}
	sel := NewFactorial2K(fs, 3)
	w := drive(t, sel, cost, 10000)
	if fs.Fns[w].Attrs[0] != 1 {
		t.Fatalf("factorial failed to pin strong factor: picked %s", fs.Fns[w].Name)
	}
	if fs.Fns[w].Attrs[1] != 0 {
		t.Fatalf("final brute force missed the weak optimum: picked %s", fs.Fns[w].Name)
	}
}

func TestFactorial2KHandlesInteraction(t *testing.T) {
	// XOR landscape: the heuristic's independence assumption breaks here,
	// the factorial design's final brute force still finds the optimum.
	fs := fakeSet([]int{0, 1}, []int{0, 1})
	cost := func(fn int) float64 {
		a, b := fs.Fns[fn].Attrs[0], fs.Fns[fn].Attrs[1]
		if a != b {
			return 100 // mismatched levels are slow
		}
		if a == 1 {
			return 10 // (1,1) best
		}
		return 20 // (0,0) second
	}
	sel := NewFactorial2K(fs, 3)
	w := drive(t, sel, cost, 10000)
	if fs.Fns[w].Attrs[0] != 1 || fs.Fns[w].Attrs[1] != 1 {
		t.Fatalf("factorial picked %s, want f-1-1", fs.Fns[w].Name)
	}
}

func TestFactorial2KIncompleteGridFallsBack(t *testing.T) {
	fs := fakeSet([]int{0, 1}, []int{0, 1})
	fs.Fns = fs.Fns[:3] // drop corner (1,1)
	sel := NewFactorial2K(fs, 2)
	if sel.Name() != "brute-force" {
		t.Fatalf("expected brute-force fallback, got %s", sel.Name())
	}
}

// Property: every selector decides within a bounded number of iterations and
// returns a valid winner, for random cost landscapes; brute force always
// returns the true argmin of the (noise-free) costs.
func TestSelectorsDecideProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fs := fakeSet([]int{0, 1, 2}, []int{10, 20})
		costs := make([]float64, len(fs.Fns))
		for i := range costs {
			costs[i] = 1 + rng.Float64()*9
		}
		oracle := func(fn int) float64 { return costs[fn] }
		best := 0
		for i, c := range costs {
			if c < costs[best] {
				best = i
			}
			_ = i
		}
		for _, sel := range []Selector{
			NewBruteForce(len(fs.Fns), 3),
			NewAttrHeuristic(fs, 3),
			NewFactorial2K(fs, 3),
		} {
			w := -1
			for iter := 0; iter < 10000; iter++ {
				fn, decided := sel.Next()
				if decided {
					w = sel.Winner()
					break
				}
				if fn < 0 || fn >= len(fs.Fns) {
					return false
				}
				sel.Record(fn, oracle(fn))
			}
			if w < 0 || w >= len(fs.Fns) {
				return false
			}
			if sel.Name() == "brute-force" && w != best {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(53))}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectorByName(t *testing.T) {
	fs := fakeSet([]int{0, 1})
	for _, name := range []string{"brute-force", "attr-heuristic", "factorial-2k"} {
		if _, err := SelectorByName(name, fs, 2); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := SelectorByName("nope", fs, 2); err == nil {
		t.Error("unknown selector accepted")
	}
}
