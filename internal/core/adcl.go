// Package core implements ADCL, the Abstract Data and Communication Library
// of the paper: an auto-tuning runtime for (non-blocking) collective
// communication operations. It is layer S5 of the substitution map
// (DESIGN.md §1) — the paper's contribution itself, reproduced rather than
// substituted.
//
// A communication operation is a FunctionSet holding alternative
// implementations (Functions), optionally characterized by an AttributeSet.
// A persistent Request executes the operation repeatedly; during the first
// iterations a runtime Selector switches among the implementations and
// measures them, then locks in the fastest. The paper's three selection
// logics are one staged learner, Search (selector.go): brute force, the
// attribute heuristic and the 2^k factorial design differ only in the plan
// that picks and prunes its screening stages. Adaptive re-opens a decision
// under drift, Speculate measures every candidate on a world of its own,
// SelectorWithHistory replays a winner an earlier run left in the knowledge
// base. Because the time spent inside a
// non-blocking operation cannot be measured directly, measurement is
// decoupled from the call through Timer objects that bracket a whole code
// region (paper §III-D); a Timer may own several Requests, which co-tunes
// them (the paper's future-work extension).
package core

import (
	"fmt"
	"sort"
)

// Started is an in-flight non-blocking operation execution. The NBC layer's
// *nbc.Handle satisfies it.
type Started interface {
	// Progress drives the operation; it returns true once complete.
	Progress() bool
	// Wait blocks until the operation completes.
	Wait()
}

// Function is one implementation of an operation (ADCL "function"). Start
// begins one execution. A blocking implementation runs to completion inside
// Start and returns nil — the paper's "wait function pointer set to NULL"
// representation, which lets blocking algorithms join a non-blocking
// function set (§IV-B-f).
type Function struct {
	Name  string
	Attrs []int // attribute values, parallel to the set's AttributeSet; shared, read-only
	Start func() Started
}

// Attribute is one characteristic dimension of the implementations in a
// function set, e.g. the broadcast tree fan-out or the segment size.
type Attribute struct {
	Name   string
	Values []int // admissible values in declaration order; shared, read-only
}

// AttributeSet declares the attribute dimensions of a function set.
type AttributeSet struct {
	Attrs []Attribute
}

// FunctionSet is an operation together with its candidate implementations
// (ADCL "function set").
type FunctionSet struct {
	Name    string
	AttrSet *AttributeSet // nil when implementations are not characterized
	Fns     []*Function
}

// Validate checks structural consistency: non-empty, unique names, and
// attribute vectors matching the attribute set. Every request validates its
// set on every rank, so a valid set allocates nothing
// (TestValidateAllocatesNothing).
func (fs *FunctionSet) Validate() error {
	if len(fs.Fns) == 0 {
		return fmt.Errorf("adcl: function set %q is empty", fs.Name)
	}
	for i, f := range fs.Fns {
		if f.Start == nil {
			return fmt.Errorf("adcl: function %q has no start routine", f.Name)
		}
		// Pairwise, not a set: a set would allocate once per rank per
		// request, and these sets hold at most a few dozen functions.
		for _, g := range fs.Fns[:i] {
			if g.Name == f.Name {
				return fmt.Errorf("adcl: duplicate function name %q", f.Name)
			}
		}
		if fs.AttrSet != nil {
			if len(f.Attrs) != len(fs.AttrSet.Attrs) {
				return fmt.Errorf("adcl: function %q has %d attribute values, set has %d attributes",
					f.Name, len(f.Attrs), len(fs.AttrSet.Attrs))
			}
			for i, v := range f.Attrs {
				ok := false
				for _, av := range fs.AttrSet.Attrs[i].Values {
					if av == v {
						ok = true
						break
					}
				}
				if !ok {
					return fmt.Errorf("adcl: function %q: value %d invalid for attribute %q",
						f.Name, v, fs.AttrSet.Attrs[i].Name)
				}
			}
		}
	}
	return nil
}

// FindFunction returns the index of the function with the given attribute
// values, or -1.
func (fs *FunctionSet) FindFunction(attrs []int) int {
	for i, f := range fs.Fns {
		if len(f.Attrs) != len(attrs) {
			continue
		}
		ok := true
		for j := range attrs {
			if f.Attrs[j] != attrs[j] {
				ok = false
				break
			}
		}
		if ok {
			return i
		}
	}
	return -1
}

// FunctionNames lists implementation names in index order.
func (fs *FunctionSet) FunctionNames() []string {
	names := make([]string, len(fs.Fns))
	for i, f := range fs.Fns {
		names[i] = f.Name
	}
	return names
}

// IndexOf returns the index of the named function, or -1.
func (fs *FunctionSet) IndexOf(name string) int {
	for i, f := range fs.Fns {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// distinctValues returns the sorted distinct values attribute a takes across
// the characterized candidate functions: a guideline mock's sentinel is not a
// level of any attribute.
func distinctValues(fns []*Function, cands []int, attr int) []int {
	set := map[int]bool{}
	for _, i := range cands {
		if !IsMockFn(fns[i]) {
			set[fns[i].Attrs[attr]] = true
		}
	}
	vals := make([]int, 0, len(set))
	for v := range set {
		vals = append(vals, v)
	}
	sort.Ints(vals)
	return vals
}
