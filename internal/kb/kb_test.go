package kb

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestCombinedKeyInjective pins satellite requirement: distinct (key, env)
// pairs can never collide, even though both components use '|' internally.
func TestCombinedKeyInjective(t *testing.T) {
	pairs := [][2]string{
		{"a|b", "c"},
		{"a", "b|c"},
		{"a|b|c", ""},
		{"a|b", "|c"},
		{"a", "|b|c"},
		{"", "a|b|c"},
		{"ialltoall|crill|np32|131072B", "torus3d|chaos=os-jitter#1"},
		{"ialltoall|crill|np32|131072B|torus3d", "chaos=os-jitter#1"},
		{"ialltoall|crill|np32", "131072B|torus3d|chaos=os-jitter#1"},
		{"12:a", "b"},
		{"1", "2:ab"},
		{"", ""},
	}
	seen := make(map[string][2]string)
	for _, p := range pairs {
		ck := CombinedKey(p[0], p[1])
		if prev, dup := seen[ck]; dup {
			t.Fatalf("CombinedKey collision: (%q,%q) and (%q,%q) both map to %q",
				prev[0], prev[1], p[0], p[1], ck)
		}
		seen[ck] = p
	}
}

// splitCombinedKey inverts CombinedKey: read the length up to the first
// colon, take that many bytes as the key and the rest as the env.
func splitCombinedKey(ck string) (key, env string) {
	i := strings.IndexByte(ck, ':')
	n := 0
	for _, c := range ck[:i] {
		n = n*10 + int(c-'0')
	}
	return ck[i+1 : i+1+n], ck[i+1+n:]
}

// TestCombinedKeyRecoverable proves injectivity constructively: the pair
// can be decoded back out of the combined key.
func TestCombinedKeyRecoverable(t *testing.T) {
	for _, p := range [][2]string{{"a|b", "c"}, {"", "x"}, {"k|k|k", "e|e"}, {"", ""}} {
		k, e := splitCombinedKey(CombinedKey(p[0], p[1]))
		if k != p[0] || e != p[1] {
			t.Fatalf("decode(CombinedKey(%q,%q)) = (%q,%q)", p[0], p[1], k, e)
		}
	}
}

// FuzzHistoryFile feeds arbitrary bytes to Open as a -history file, the one
// input of this package a user hands over. Open never panics: it returns an
// error, or a store whose snapshot, written by Flush and opened again, holds
// the same records. The fuzzed (key, env) pair must come back out of its
// CombinedKey, which makes the encoding injective on it. The committed seeds
// (testdata/fuzz/FuzzHistoryFile/) are a valid file, the pre-snapshot
// {"entries":…} format, a record without key and winner, and one key
// recorded twice with competing scores.
func FuzzHistoryFile(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, key, env string) {
		if k, e := splitCombinedKey(CombinedKey(key, env)); k != key || e != env {
			t.Fatalf("CombinedKey(%q, %q) decodes to (%q, %q)", key, env, k, e)
		}
		path := filepath.Join(t.TempDir(), "h.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(StoreOptions{SnapshotPath: path})
		if err != nil {
			return
		}
		if err := st.Flush(true); err != nil {
			t.Fatalf("Flush of an opened file: %v", err)
		}
		again, err := Open(StoreOptions{SnapshotPath: path})
		if err != nil {
			t.Fatalf("Open of a flushed file: %v", err)
		}
		if got, want := again.Records(), st.Records(); !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip through the file:\n got %+v\nwant %+v", got, want)
		}
	})
}

func TestSupersedes(t *testing.T) {
	cases := []struct {
		name     string
		incoming float64
		stored   float64
		want     bool
	}{
		{"better score wins", 0.5, 1.0, true},
		{"worse score loses", 1.0, 0.5, false},
		{"equal scores: last writer wins", 1.0, 1.0, true},
		{"unknown incoming score: last writer wins", 0, 1.0, true},
		{"unknown stored score: last writer wins", 1.0, 0, true},
		{"both unknown: last writer wins", 0, 0, true},
	}
	for _, c := range cases {
		got := supersedes(Record{Score: c.incoming}, Record{Score: c.stored})
		if got != c.want {
			t.Errorf("%s: supersedes(score=%v over score=%v) = %v, want %v",
				c.name, c.incoming, c.stored, got, c.want)
		}
	}
}
