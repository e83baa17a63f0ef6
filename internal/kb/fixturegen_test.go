package kb

import (
	"fmt"
	"math/rand/v2"
)

// The fixture suite pins service correctness independently of the
// benchmark: FixtureRecords is a fixed-seed population of ~50 tuning
// decisions over the library's real scenario space (ops x platforms x
// nprocs x msgsize x env fingerprint), and FixtureQueries derives
// deterministic lookup workloads over it. The committed copies in
// testdata/ (fixture.json, golden_lookups.json) must match what these
// functions generate — fixture_test.go pins both, and
// TestServerGoldenTranscript replays the same workload over HTTP.

// FixtureSeed seeds every fixture stream; the same seed always yields the
// identical population and workloads.
const FixtureSeed = 42

// LookupQuery is one fixture lookup.
type LookupQuery struct {
	Key string `json:"key"`
	Env string `json:"env,omitempty"`
}

// TranscriptEntry is the expected outcome of one fixture lookup: what a
// correct daemon loaded with FixtureRecords must answer.
type TranscriptEntry struct {
	Key    string `json:"key"`
	Env    string `json:"env,omitempty"`
	Found  bool   `json:"found"`
	Winner string `json:"winner,omitempty"`
}

var fixtureOps = []struct {
	name  string
	impls []string
}{
	{"ialltoall", []string{"linear", "pairwise", "ring", "bruck"}},
	{"ibcast", []string{"seg8k", "seg64k", "seg128k", "binomial"}},
	{"iallgather", []string{"ring", "neighbor-exchange", "bruck"}},
	{"iallreduce", []string{"rabenseifner", "ring", "recursive-doubling"}},
}

var (
	fixturePlatforms = []string{"crill", "whale", "bgp"}
	fixtureNProcs    = []int{8, 16, 32, 64}
	fixtureMsgSizes  = []int{1024, 16384, 131072, 1048576}
	fixtureEnvs      = []string{"", "torus3d", "chaos=os-jitter#1", "torus3d|chaos=congested#7"}
)

func fixtureRNG(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(FixtureSeed, stream))
}

// fixtureCombo draws one scenario; the key uses exactly core.HistoryKey's
// format so fixture entries look like real tuner traffic.
func fixtureCombo(r *rand.Rand) (key, env string, op int) {
	op = r.IntN(len(fixtureOps))
	key = fmt.Sprintf("%s|%s|np%d|%dB",
		fixtureOps[op].name,
		fixturePlatforms[r.IntN(len(fixturePlatforms))],
		fixtureNProcs[r.IntN(len(fixtureNProcs))],
		fixtureMsgSizes[r.IntN(len(fixtureMsgSizes))])
	env = fixtureEnvs[r.IntN(len(fixtureEnvs))]
	return key, env, op
}

// FixtureRecords returns the fixed 50-record fixture population (distinct
// combined keys; winners and scores drawn deterministically).
func FixtureRecords() []Record {
	r := fixtureRNG(1)
	seen := make(map[string]bool)
	var rs []Record
	for len(rs) < 50 {
		key, env, op := fixtureCombo(r)
		if seen[CombinedKey(key, env)] {
			continue
		}
		seen[CombinedKey(key, env)] = true
		impls := fixtureOps[op].impls
		rs = append(rs, Record{
			Key:    key,
			Env:    env,
			Winner: impls[r.IntN(len(impls))],
			Score:  0.001 + float64(r.IntN(100000))/1e6, // 1ms..101ms, finite decimal so JSON round-trips exactly
			Evals:  3 * (1 + r.IntN(4)),
		})
	}
	return rs
}

// FixtureQueries returns the stream-th deterministic lookup workload of n
// queries over the fixture population: ~70% target recorded scenarios
// (hits), the rest are fresh draws (mostly misses). Stream 0 is the golden
// transcript workload; a load generator gives each simulated client its own
// stream so concurrent clients do not ask identical sequences.
func FixtureQueries(stream uint64, n int) []LookupQuery {
	recs := FixtureRecords()
	r := fixtureRNG(1000 + stream)
	qs := make([]LookupQuery, 0, n)
	for i := 0; i < n; i++ {
		if r.IntN(10) < 7 {
			rec := recs[r.IntN(len(recs))]
			qs = append(qs, LookupQuery{Key: rec.Key, Env: rec.Env})
		} else {
			key, env, _ := fixtureCombo(r)
			qs = append(qs, LookupQuery{Key: key, Env: env})
		}
	}
	return qs
}

// FixtureTranscript replays the golden workload (stream 0, n queries)
// against an in-memory store loaded with FixtureRecords and returns the
// expected answers. A live daemon loaded with the fixture must reproduce
// this transcript exactly.
func FixtureTranscript(n int) []TranscriptEntry {
	st := NewStore(StoreOptions{})
	st.PutBatch(FixtureRecords())
	var ts []TranscriptEntry
	for _, q := range FixtureQueries(0, n) {
		e := TranscriptEntry{Key: q.Key, Env: q.Env}
		if rec, ok := st.Lookup(q.Key, q.Env); ok {
			e.Found = true
			e.Winner = rec.Winner
		}
		ts = append(ts, e)
	}
	return ts
}
