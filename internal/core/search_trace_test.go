package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"testing"

	"nbctune/internal/mpi"
	"nbctune/internal/platform"
)

var updateTraces = flag.Bool("update", false, "rewrite testdata/search_traces.json from the selectors as they are")

// searchTrace is everything one selector shows the outside over one tuning
// session on a synthetic cost landscape. Floats that can be NaN travel as
// shortest-round-trip strings.
type searchTrace struct {
	Case   string `json:"case"`
	Name   string `json:"name"`
	Rounds string `json:"speculative_rounds"` // the budget, or the refusal
	// Next is the implementation Next() dictated at every step; a step taken
	// after the decision is logged as -(fn+1).
	Next    []int                `json:"next"`
	Winner  int                  `json:"winner"`
	Evals   int                  `json:"evals"`
	Score   string               `json:"score,omitempty"` // Score(Winner)
	Scores  map[string]string    `json:"scores,omitempty"`
	Samples map[string][]float64 `json:"samples,omitempty"`
	// The attached audit's JSON is four fifths of a trace, so the file holds
	// its event count and digest; any moved or reworded event changes both.
	AuditEvents int    `json:"audit_events"`
	AuditSHA256 string `json:"audit_sha256"`
}

func fstr(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// traceSets builds every catalogue op's function set on rank 0 of a small
// world, without and (where the mock catalogue has any) with its mocks.
func traceSets(t *testing.T) (labels []string, sets []*FunctionSet) {
	t.Helper()
	for _, name := range OpNames() {
		op := mustOp(t, name)
		np := 4
		if name == "neighborhood" {
			np = 9
		}
		var mocks []string
		for _, m := range MockNames() {
			if def, _ := MockByName(m); def.Op == name {
				mocks = append(mocks, m)
			}
		}
		variants := [][]string{nil}
		if len(mocks) > 0 {
			variants = append(variants, mocks)
		}
		for _, v := range variants {
			_, w, err := platform.Crill().NewWorld(np, 3)
			if err != nil {
				t.Fatal(err)
			}
			var fs *FunctionSet
			w.Start(func(c *mpi.Comm) {
				if c.Rank() == 0 {
					fs, err = op.Set(c, 4096, v)
				}
			})
			w.Run()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			label := name
			if v != nil {
				label += "+mocks"
			}
			labels, sets = append(labels, label), append(sets, fs)
		}
	}
	return labels, sets
}

// attrIndex is the position of fn's value in attribute a's value list (the
// function's own index for an uncharacterized set).
func attrIndex(fs *FunctionSet, fn, a int) int {
	for i, v := range fs.AttrSet.Attrs[a].Values {
		if v == fs.Fns[fn].Attrs[a] {
			return i
		}
	}
	return 0
}

// landscape is a deterministic cost oracle: the k-th sample of fn, taken at
// global step `step`.
type landscape func(fs *FunctionSet, fn, k, step int) float64

var traceLandscapes = []struct {
	name string
	cost landscape
}{
	// Every attribute contributes independently (the heuristic's happy
	// path), with a small per-sample ripple; a mock beats everything.
	{"separable", func(fs *FunctionSet, fn, k, _ int) float64 {
		c := 10.0
		switch {
		case IsMockFn(fs.Fns[fn]):
			c = 9
		case fs.AttrSet == nil:
			c += float64((fn + 1) % len(fs.Fns))
		default:
			for a, at := range fs.AttrSet.Attrs {
				d := attrIndex(fs, fn, a) - (a+1)%len(at.Values)
				if d < 0 {
					d = -d
				}
				c += float64((a + 1) * d)
			}
		}
		return 1e-4 * c * (1 + 0.01*float64((fn*31+k*7)%5))
	}},
	// Attributes interact (the cost depends on their combination), a mock
	// sits mid-field, and every 7th measurement is an 8x outlier.
	{"interacting", func(fs *FunctionSet, fn, k, step int) float64 {
		h := fn * 3
		if fs.AttrSet != nil && !IsMockFn(fs.Fns[fn]) {
			for a := range fs.AttrSet.Attrs {
				h += (2*a + 3) * attrIndex(fs, fn, a) * 7
			}
		}
		c := 1e-4 * (10 + float64(h%11)) * (1 + 0.003*float64(k%3))
		if step%7 == 6 {
			c *= 8
		}
		return c
	}},
}

// traceOne drives one selector to its decision. An adaptive selector then
// sees the landscape shift — every implementation takes on 2.5x the cost of
// its mirror image — for long enough to drift, re-tune and monitor again.
func traceOne(t *testing.T, label string, fs *FunctionSet, selName string, evals int, cost landscape) searchTrace {
	t.Helper()
	tr := searchTrace{Case: label}
	if s, err := speculable(selName, fs, evals); err != nil {
		tr.Rounds = err.Error()
	} else {
		tr.Rounds = strconv.Itoa(s.rounds())
	}
	sel, err := SelectorByName(selName, fs, evals)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	tr.Name = sel.Name()
	au := AttachAudit(sel, fs)
	if au == nil {
		t.Fatalf("%s: selector takes no audit", label)
	}
	_, adaptive := sel.(*Adaptive)
	taken := make([]int, len(fs.Fns))
	limit, shiftAt := 100000, -1
	for step := 0; step < limit; step++ {
		fn, decided := sel.Next()
		if decided && shiftAt < 0 {
			shiftAt, limit = step, 3*step+32
			if !adaptive {
				break
			}
		}
		c := cost(fs, fn, taken[fn], step)
		if decided {
			tr.Next = append(tr.Next, -(fn + 1))
		} else {
			tr.Next = append(tr.Next, fn)
		}
		if shiftAt >= 0 {
			c = 2.5 * cost(fs, len(fs.Fns)-1-fn, taken[fn], step)
		}
		taken[fn]++
		sel.Record(fn, c)
	}
	if shiftAt < 0 {
		t.Fatalf("%s: no decision", label)
	}
	tr.Winner, tr.Evals = sel.Winner(), sel.Evals()
	if sc, ok := sel.(interface{ Score(fn int) float64 }); ok {
		tr.Score = fstr(sc.Score(tr.Winner))
	}
	if rep, ok := sel.(Reporter); ok {
		tr.Scores, tr.Samples = map[string]string{}, map[string][]float64{}
		for fn, s := range rep.Scores() {
			tr.Scores[strconv.Itoa(fn)] = fstr(s)
		}
		for fn := range fs.Fns {
			if s := rep.Samples(fn); len(s) > 0 {
				tr.Samples[strconv.Itoa(fn)] = s
			}
		}
	}
	log, err := json.Marshal(au)
	if err != nil {
		t.Fatal(err)
	}
	tr.AuditEvents, tr.AuditSHA256 = len(au.Events), fmt.Sprintf("%x", sha256.Sum256(log))
	return tr
}

// TestSearchTraces is the equivalence oracle of the selection logics: over
// every catalogue op's function set, every selector name, 1 and 3
// evaluations per function and two synthetic landscapes, the measurement
// order, the decision, the reported scores and samples, the speculative
// budget and the audit log must be what testdata/search_traces.json holds —
// a file generated (-update) from the three separate learner types this
// package had before they became plans of one Search.
func TestSearchTraces(t *testing.T) {
	labels, sets := traceSets(t)
	var buf bytes.Buffer
	buf.WriteString("[\n")
	first := true
	for i, fs := range sets {
		for _, selName := range []string{"brute-force", "brute-force-mean", "attr-heuristic", "factorial-2k", "adaptive+attr-heuristic"} {
			for _, evals := range []int{1, 3} {
				for _, l := range traceLandscapes {
					label := fmt.Sprintf("%s/%s/evals=%d/%s", labels[i], selName, evals, l.name)
					line, err := json.Marshal(traceOne(t, label, fs, selName, evals, l.cost))
					if err != nil {
						t.Fatal(err)
					}
					if !first {
						buf.WriteString(",\n")
					}
					first = false
					buf.Write(line)
				}
			}
		}
	}
	buf.WriteString("\n]\n")

	const path = "testdata/search_traces.json"
	if *updateTraces {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		return
	}
	// Name the cases that moved instead of dumping two large files.
	var got, pinned []searchTrace
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &pinned); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	byCase := map[string]string{}
	for _, p := range pinned {
		b, _ := json.Marshal(p)
		byCase[p.Case] = string(b)
	}
	var moved []string
	for _, g := range got {
		if b, _ := json.Marshal(g); byCase[g.Case] != string(b) {
			moved = append(moved, g.Case)
		}
	}
	sort.Strings(moved)
	t.Fatalf("%d of %d traces differ from %s (%d pinned): %v", len(moved), len(got), path, len(pinned), moved)
}
