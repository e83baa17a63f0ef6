package main

import (
	"os"
	"testing"
)

// TestDefaultOut pins the suite -> summary path table against the three
// committed artifacts: a suite run without -out must only ever rewrite its
// own file.
func TestDefaultOut(t *testing.T) {
	cases := map[string]string{
		"verification": "results/sweep_summary.json",
		"fft":          "results/sweep_summary_fft.json",
		"scale":        "results/scale_summary.json",
		"nonesuch":     "",
	}
	for suite, want := range cases {
		if got := defaultOut(suite); got != want {
			t.Errorf("defaultOut(%q) = %q, want %q", suite, got, want)
		}
		if want == "" {
			continue
		}
		if _, err := os.Stat("../../" + want); err != nil {
			t.Errorf("suite %q defaults to %s, which is not a committed artifact: %v", suite, want, err)
		}
	}
}

func TestParseShards(t *testing.T) {
	cases := []struct {
		in     string
		shards int
		pdes   bool
		ok     bool
	}{
		{"", 0, false, true},
		{"auto", 0, true, true},
		{"1", 1, true, true},
		{"8", 8, true, true},
		{"0", 0, false, false},
		{"-2", 0, false, false},
		{"many", 0, false, false},
		{"2.5", 0, false, false},
	}
	for _, c := range cases {
		shards, pdes, err := parseShards(c.in)
		if (err == nil) != c.ok {
			t.Errorf("parseShards(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if !c.ok {
			continue
		}
		if shards != c.shards || pdes != c.pdes {
			t.Errorf("parseShards(%q) = (%d, %v), want (%d, %v)", c.in, shards, pdes, c.shards, c.pdes)
		}
	}
}
